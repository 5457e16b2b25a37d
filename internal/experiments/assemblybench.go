package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/fsio"
	"earthing/internal/grid"
	"earthing/internal/linalg"
)

// AssemblyCaseBench records the hot-path benchmark for one Balaidos soil
// case: reference image-series kernel vs the flat kernel for matrix
// generation, and the row-by-row reference Cholesky vs the blocked (and
// mixed-precision) packed factorization. Single-thread times are minima over
// Quality.Repeats; the *_parallel_ms rows rerun assembly at the configured
// worker width.
type AssemblyCaseBench struct {
	// Soil is the §5.2 case name (A/B/C).
	Soil string `json:"soil"`
	// Elements and DoF describe the discretization for this case.
	Elements int `json:"elements"`
	DoF      int `json:"dof"`

	// Single-thread assembly wall times per kernel.
	AssemblyRefMs  float64 `json:"assembly_reference_ms"`
	AssemblyFlatMs float64 `json:"assembly_flat_ms"`
	// Parallel assembly wall times per kernel.
	AssemblyRefParMs  float64 `json:"assembly_reference_parallel_ms"`
	AssemblyFlatParMs float64 `json:"assembly_flat_parallel_ms"`

	// Single-thread factorization wall times.
	FactorRefMs     float64 `json:"factor_reference_ms"`
	FactorBlockedMs float64 `json:"factor_blocked_ms"`
	FactorMixedMs   float64 `json:"factor_mixed_ms"`

	// Combined matrix generation (assembly + factorization), single thread:
	// reference kernel + reference Cholesky vs flat kernel + blocked
	// Cholesky.
	CombinedRefMs   float64 `json:"combined_reference_ms"`
	CombinedFastMs  float64 `json:"combined_fast_ms"`
	CombinedSpeedup float64 `json:"combined_speedup"`

	// ReqReference is the grid resistance of the reference path (Ω).
	ReqReference float64 `json:"req_reference_ohm"`
	// BlockedBitIdentical reports whether the blocked float64 factorization
	// reproduces the reference solution bit for bit (contract: always true).
	BlockedBitIdentical bool `json:"blocked_bit_identical"`
	// MaxAbsDiffReqFlat / MaxAbsDiffReqMixed are |ΔReq| of the flat-kernel
	// and mixed-precision paths against the reference (contract: ≤ 1e-10
	// relative; recorded in Ω).
	MaxAbsDiffReqFlat  float64 `json:"max_abs_diff_req_flat_ohm"`
	MaxAbsDiffReqMixed float64 `json:"max_abs_diff_req_mixed_ohm"`
}

// AssemblyBench is the BENCH_assembly.json record: the hot-path benchmark on
// the Balaidos grid under soil cases C and B. Case C — the paper's central
// two-layer Balaidos analysis, whose rods cross the interface and exercise
// both layer image ladders — is the headline: its 4-image equal-weight
// groups are the workload the flat kernel's fused-logarithm path targets.
// Case B (grid below the interface, single-image groups) bounds the gain on
// the ladder shape with no fusion opportunity.
type AssemblyBench struct {
	// Workers is the parallel width of the *_parallel_ms rows.
	Workers int `json:"workers"`
	// CombinedSpeedup echoes the headline case C single-thread combined
	// speedup (acceptance bar: ≥ 2).
	CombinedSpeedup float64 `json:"combined_speedup"`

	Cases []AssemblyCaseBench `json:"cases"`
}

// reqOf solves r·σ = ν and reduces to the grid resistance, mirroring the
// engine's results stage, with the factorization chosen by factor.
func reqOf(m *grid.Mesh, r *linalg.SymMatrix, factor func(*linalg.SymMatrix) (*linalg.Cholesky, error)) (float64, []float64, error) {
	ch, err := factor(r)
	if err != nil {
		return 0, nil, err
	}
	sigma, err := ch.Solve(bem.RHS(m))
	if err != nil {
		return 0, nil, err
	}
	return 1 / bem.TotalCurrent(m, sigma), sigma, nil
}

// timeAssembly builds a fresh assembler under opt and times Matrix(),
// returning the minimum wall time over repeats and the last matrix.
func timeAssembly(m *grid.Mesh, c SoilCase, opt bem.Options, repeats int) (time.Duration, *linalg.SymMatrix, error) {
	var r *linalg.SymMatrix
	d, err := minDuration(repeats, func() (time.Duration, error) {
		asm, err := bem.New(m, c.Model, opt)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		r, _, err = asm.Matrix()
		return time.Since(t0), err
	})
	return d, r, err
}

// runAssemblyCase measures one soil case at the given single-thread and
// parallel widths.
func runAssemblyCase(c SoilCase, q Quality, workers int) (AssemblyCaseBench, error) {
	mesh, _, err := core.BuildMesh(grid.Balaidos(), c.Model, core.Config{RodElements: c.RodElements})
	if err != nil {
		return AssemblyCaseBench{}, err
	}

	// The reference column runs the ReferenceKernel oracle explicitly; the
	// flat column is the production default.
	opt1Flat := q.bemOptions(1)
	opt1 := opt1Flat
	opt1.Kernel = bem.ReferenceKernel
	optNFlat := q.bemOptions(workers)
	optN := optNFlat
	optN.Kernel = bem.ReferenceKernel

	out := AssemblyCaseBench{Soil: c.Name, Elements: len(mesh.Elements)}

	// Single-thread assembly, both kernels. The matrices are kept: the
	// reference one feeds the factorization timings, the flat one the
	// accuracy check.
	refWall, refR, err := timeAssembly(mesh, c, opt1, q.Repeats)
	if err != nil {
		return out, err
	}
	flatWall, flatR, err := timeAssembly(mesh, c, opt1Flat, q.Repeats)
	if err != nil {
		return out, err
	}
	out.DoF = refR.Order()
	out.AssemblyRefMs = ms(refWall)
	out.AssemblyFlatMs = ms(flatWall)

	// Parallel assembly, both kernels.
	refParWall, _, err := timeAssembly(mesh, c, optN, q.Repeats)
	if err != nil {
		return out, err
	}
	flatParWall, _, err := timeAssembly(mesh, c, optNFlat, q.Repeats)
	if err != nil {
		return out, err
	}
	out.AssemblyRefParMs = ms(refParWall)
	out.AssemblyFlatParMs = ms(flatParWall)

	// Single-thread factorizations of the reference matrix. NewCholesky*
	// copy the input into the factor, so repeated timing is sound.
	factorRef, err := minDuration(q.Repeats, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := linalg.NewCholesky(refR)
		return time.Since(t0), err
	})
	if err != nil {
		return out, err
	}
	factorBlk, err := minDuration(q.Repeats, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := linalg.NewCholeskyBlocked(refR, linalg.FactorOpts{Workers: 1})
		return time.Since(t0), err
	})
	if err != nil {
		return out, err
	}
	factorMix, err := minDuration(q.Repeats, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := linalg.NewCholeskyBlocked(refR, linalg.FactorOpts{Workers: 1, Mixed: true})
		return time.Since(t0), err
	})
	if err != nil {
		return out, err
	}
	out.FactorRefMs = ms(factorRef)
	out.FactorBlockedMs = ms(factorBlk)
	out.FactorMixedMs = ms(factorMix)

	out.CombinedRefMs = out.AssemblyRefMs + out.FactorRefMs
	out.CombinedFastMs = out.AssemblyFlatMs + out.FactorBlockedMs
	out.CombinedSpeedup = out.CombinedRefMs / out.CombinedFastMs

	// Accuracy contracts against the reference path.
	reqRef, sigRef, err := reqOf(mesh, refR, linalg.NewCholesky)
	if err != nil {
		return out, err
	}
	out.ReqReference = reqRef
	reqBlk, sigBlk, err := reqOf(mesh, refR, func(r *linalg.SymMatrix) (*linalg.Cholesky, error) {
		return linalg.NewCholeskyBlocked(r, linalg.FactorOpts{Workers: 1})
	})
	if err != nil {
		return out, err
	}
	//lint:ignore floatcmp bit-identity is the measured property: the blocked factor must reproduce the reference Req exactly
	out.BlockedBitIdentical = reqBlk == reqRef
	for i := range sigBlk {
		//lint:ignore floatcmp bit-identity is the measured property: every σ entry must match the reference solve exactly
		if sigBlk[i] != sigRef[i] {
			out.BlockedBitIdentical = false
		}
	}
	reqFlat, _, err := reqOf(mesh, flatR, linalg.NewCholesky)
	if err != nil {
		return out, err
	}
	out.MaxAbsDiffReqFlat = abs(reqFlat - reqRef)
	reqMix, _, err := reqOf(mesh, refR, func(r *linalg.SymMatrix) (*linalg.Cholesky, error) {
		return linalg.NewCholeskyBlocked(r, linalg.FactorOpts{Workers: 1, Mixed: true})
	})
	if err != nil {
		return out, err
	}
	out.MaxAbsDiffReqMixed = abs(reqMix - reqRef)
	return out, nil
}

// RunAssemblyBench measures the kernel and factorization variants on the
// Balaidos workload, soil cases C (headline) then B. workers ≤ 0 selects
// GOMAXPROCS for the parallel assembly rows (the single-thread rows always
// run at one worker).
func RunAssemblyBench(q Quality, workers int) (AssemblyBench, error) {
	q = q.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := AssemblyBench{Workers: workers}
	models := BalaidosModels()
	for _, c := range []SoilCase{models[2], models[1]} {
		cb, err := runAssemblyCase(c, q, workers)
		if err != nil {
			return out, fmt.Errorf("soil %s: %w", c.Name, err)
		}
		out.Cases = append(out.Cases, cb)
	}
	out.CombinedSpeedup = out.Cases[0].CombinedSpeedup
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// AssemblyKernels prints the assembly/solve raw-speed benchmark and, when
// jsonPath is non-empty, writes the AssemblyBench record there as JSON
// (BENCH_assembly.json in the repo convention).
func AssemblyKernels(out io.Writer, q Quality, workers int, jsonPath string) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	ab, err := RunAssemblyBench(q, workers)
	if err != nil {
		return err
	}
	header(w, "Assembly/solve hot path — Balaidos, reference vs flat kernel + blocked Cholesky")
	for _, cb := range ab.Cases {
		fmt.Fprintf(w, "soil %s: %d elements, %d DoF\n", cb.Soil, cb.Elements, cb.DoF)
		fmt.Fprintf(w, "  assembly   1 thread: reference %9.1f ms   flat %9.1f ms  (%.2f×)\n",
			cb.AssemblyRefMs, cb.AssemblyFlatMs, cb.AssemblyRefMs/cb.AssemblyFlatMs)
		fmt.Fprintf(w, "  assembly %2d threads: reference %9.1f ms   flat %9.1f ms  (%.2f×)\n",
			ab.Workers, cb.AssemblyRefParMs, cb.AssemblyFlatParMs, cb.AssemblyRefParMs/cb.AssemblyFlatParMs)
		fmt.Fprintf(w, "  factor     1 thread: reference %9.2f ms   blocked %6.2f ms   mixed %6.2f ms\n",
			cb.FactorRefMs, cb.FactorBlockedMs, cb.FactorMixedMs)
		fmt.Fprintf(w, "  combined   1 thread: reference %9.1f ms   fast %9.1f ms  speed-up %.2f×\n",
			cb.CombinedRefMs, cb.CombinedFastMs, cb.CombinedSpeedup)
		fmt.Fprintf(w, "  Req %.6f Ω; blocked bit-identical %v; |ΔReq| flat %.3g Ω, mixed %.3g Ω\n",
			cb.ReqReference, cb.BlockedBitIdentical, cb.MaxAbsDiffReqFlat, cb.MaxAbsDiffReqMixed)
	}
	fmt.Fprintf(w, "headline combined speed-up (soil C, 1 thread): %.2f× (bar ≥ 2)\n", ab.CombinedSpeedup)
	if jsonPath == "" {
		return nil
	}
	if err := fsio.WriteFile(jsonPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(ab)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "JSON written to", jsonPath)
	return nil
}
