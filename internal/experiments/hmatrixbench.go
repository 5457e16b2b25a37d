package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/fsio"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// The H-matrix scaling benchmark (BENCH_hmatrix.json) sweeps interconnected
// multi-substation grids over a DoF ladder and records, per rung, the
// compressed tier's build/solve wall time, memory and rank profile through
// the engine's SolverHMatrix path. On the small rungs the optimized dense
// path (flat kernel assembly + blocked Cholesky) is measured alongside, both
// for the |ΔReq| accuracy contract and as the sample for a power-law fit
// that extrapolates dense cost to the headline rung — measuring dense at
// 10k+ DoF directly would take hours, which is the point of the compressed
// tier.

// HMatrixRung is one DoF rung of the scaling sweep.
type HMatrixRung struct {
	// TargetDoF is the requested ladder point; DoF and Elements describe the
	// generated interconnected system (lattice rounding keeps DoF within a
	// few percent of the target).
	TargetDoF int `json:"target_dof"`
	DoF       int `json:"dof"`
	Elements  int `json:"elements"`

	// Compressed tier, through core.SolverHMatrix.
	BuildMs      float64 `json:"hmatrix_build_ms"`
	SolveMs      float64 `json:"hmatrix_solve_ms"`
	CGIterations int     `json:"cg_iterations"`
	ReqHMatrix   float64 `json:"req_hmatrix_ohm"`

	// Rank profile and memory footprint of the representation.
	DenseBlocks   int     `json:"dense_blocks"`
	LowRankBlocks int     `json:"low_rank_blocks"`
	MaxRank       int     `json:"max_rank"`
	AvgRank       float64 `json:"avg_rank"`
	HMatrixBytes  int64   `json:"hmatrix_bytes"`
	DenseBytes    int64   `json:"dense_equivalent_bytes"`
	Compression   float64 `json:"compression_ratio"`

	// Dense reference, measured only when the rung is at or below the dense
	// cutoff: flat-kernel assembly + blocked Cholesky + triangular solves.
	DenseMeasured   bool    `json:"dense_measured"`
	DenseAssemblyMs float64 `json:"dense_assembly_ms,omitempty"`
	DenseFactorMs   float64 `json:"dense_factor_ms,omitempty"`
	ReqDense        float64 `json:"req_dense_ohm,omitempty"`
	ReqRelErr       float64 `json:"req_rel_err,omitempty"`
}

// HMatrixBench is the BENCH_hmatrix.json record.
type HMatrixBench struct {
	Workers   int     `json:"workers"`
	Eps       float64 `json:"eps"`
	SeriesTol float64 `json:"series_tol"`
	Seed      int64   `json:"seed"`

	Rungs []HMatrixRung `json:"rungs"`

	// Power-law fits t(N) = c·N^p (ms) over the dense-measured rungs, used
	// to extrapolate the dense cost to the headline rung.
	DenseAssemblyExponent float64 `json:"dense_assembly_exponent"`
	DenseFactorExponent   float64 `json:"dense_factor_exponent"`

	// Headline comparison at the largest acceptance rung (10k DoF target):
	// compressed build+solve against the extrapolated dense assembly+factor.
	// Acceptance bars: TimeFraction < 0.10, MemoryFraction < 0.25, and
	// MaxReqRelErr ≤ 10·Eps over the dense-measured rungs.
	HeadlineDoF         int     `json:"headline_dof"`
	HMatrixTotalMs      float64 `json:"headline_hmatrix_total_ms"`
	DenseExtrapolatedMs float64 `json:"headline_dense_extrapolated_ms"`
	TimeFraction        float64 `json:"headline_time_fraction"`
	MemoryFraction      float64 `json:"headline_memory_fraction"`
	MaxReqRelErr        float64 `json:"max_req_rel_err"`
}

// hmatrixLadder returns the DoF ladder, the dense-measurement cutoff and the
// headline target. The full ladder spans 1k–20k with dense measured on the
// four small rungs (the fit sample); quick quality shrinks the sweep to a
// smoke ladder so CI can exercise the full code path in seconds.
func hmatrixLadder(q Quality) (targets []int, denseCutoff, headline int) {
	if q.SeriesTol > Default().SeriesTol {
		return []int{300, 600}, 600, 600
	}
	return []int{600, 1000, 1600, 2400, 5000, 10000, 20000}, 2400, 10000
}

// powerFit fits t = c·N^p by least squares in log-log space and returns
// (c, p). Requires at least two samples; with fewer it degenerates to the
// single sample with the given fallback exponent.
func powerFit(ns []float64, ts []float64, fallbackExp float64) (c, p float64) {
	if len(ns) == 1 {
		return ts[0] / math.Pow(ns[0], fallbackExp), fallbackExp
	}
	var sx, sy, sxx, sxy float64
	for i := range ns {
		x, y := math.Log(ns[i]), math.Log(ts[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(ns))
	p = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	c = math.Exp((sy - p*sx) / n)
	return c, p
}

// runHMatrixRung measures one ladder point.
func runHMatrixRung(ctx context.Context, target int, seed int64, q Quality, workers, denseCutoff int) (HMatrixRung, error) {
	out := HMatrixRung{TargetDoF: target}
	g := grid.Interconnected(target, seed)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		return out, err
	}
	out.DoF = m.NumDoF
	out.Elements = len(m.Elements)

	opt := q.bemOptions(workers)
	model := soil.NewTwoLayer(0.0025, 0.020, 1.0)

	res, err := core.AnalyzeMeshCtx(ctx, m, model, core.Config{
		GPR:    10_000,
		Solver: core.SolverHMatrix,
		BEM:    opt,
		// A silent dense fallback would corrupt the timing; fail instead.
		HMatrix: core.HMatrixConfig{DenseFallbackN: -1},
	})
	if err != nil {
		return out, err
	}
	out.BuildMs = ms(res.Timings.MatrixGen)
	out.SolveMs = ms(res.Timings.Solve)
	out.CGIterations = res.CG.Iterations
	out.ReqHMatrix = res.Req
	st := res.HMatrix
	out.DenseBlocks = st.DenseBlocks
	out.LowRankBlocks = st.LowRank
	out.MaxRank = st.MaxRank
	out.AvgRank = st.AvgRank
	out.HMatrixBytes = st.Bytes
	out.DenseBytes = st.DenseBytes
	out.Compression = st.CompressionRatio()

	if target > denseCutoff {
		return out, nil
	}
	out.DenseMeasured = true
	asm, err := bem.New(m, model, opt)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	r, _, err := asm.MatrixCtx(ctx)
	if err != nil {
		return out, err
	}
	out.DenseAssemblyMs = ms(time.Since(t0))
	t0 = time.Now()
	ch, err := linalg.NewCholeskyBlocked(r, linalg.FactorOpts{Workers: workers})
	if err != nil {
		return out, err
	}
	out.DenseFactorMs = ms(time.Since(t0))
	sigma, err := ch.Solve(bem.RHS(m))
	if err != nil {
		return out, err
	}
	out.ReqDense = 1 / bem.TotalCurrent(m, sigma)
	out.ReqRelErr = abs(out.ReqHMatrix-out.ReqDense) / out.ReqDense
	return out, nil
}

// RunHMatrixBench sweeps the DoF ladder and assembles the scaling record.
// workers ≤ 0 selects GOMAXPROCS.
func RunHMatrixBench(ctx context.Context, q Quality, workers int) (HMatrixBench, error) {
	q = q.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const eps = 1e-6 // hmatrix.Params default, the acceptance tolerance
	const seed = 1
	targets, denseCutoff, headline := hmatrixLadder(q)
	out := HMatrixBench{Workers: workers, Eps: eps, SeriesTol: q.SeriesTol, Seed: seed}

	var fitN, fitAsm, fitFac []float64
	for _, target := range targets {
		rung, err := runHMatrixRung(ctx, target, seed, q, workers, denseCutoff)
		if err != nil {
			return out, fmt.Errorf("rung %d: %w", target, err)
		}
		out.Rungs = append(out.Rungs, rung)
		if rung.DenseMeasured {
			fitN = append(fitN, float64(rung.DoF))
			fitAsm = append(fitAsm, rung.DenseAssemblyMs)
			fitFac = append(fitFac, rung.DenseFactorMs)
			if rung.ReqRelErr > out.MaxReqRelErr {
				out.MaxReqRelErr = rung.ReqRelErr
			}
		}
	}

	// Dense extrapolation: power-law fits over the measured rungs (assembly
	// is ~quadratic in pairs with a distance-dependent per-pair cost, the
	// factorization ~cubic; the fit keeps whatever exponent the data shows).
	ca, pa := powerFit(fitN, fitAsm, 2)
	cf, pf := powerFit(fitN, fitFac, 3)
	out.DenseAssemblyExponent = pa
	out.DenseFactorExponent = pf

	for i := range out.Rungs {
		r := &out.Rungs[i]
		if r.TargetDoF != headline {
			continue
		}
		n := float64(r.DoF)
		out.HeadlineDoF = r.DoF
		out.HMatrixTotalMs = r.BuildMs + r.SolveMs
		out.DenseExtrapolatedMs = ca*math.Pow(n, pa) + cf*math.Pow(n, pf)
		out.TimeFraction = out.HMatrixTotalMs / out.DenseExtrapolatedMs
		out.MemoryFraction = r.Compression
	}
	return out, nil
}

// HMatrixScaling prints the compressed-solver scaling benchmark and, when
// jsonPath is non-empty, writes the HMatrixBench record there
// (BENCH_hmatrix.json in the repo convention).
func HMatrixScaling(ctx context.Context, out io.Writer, q Quality, workers int, jsonPath string) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	hb, err := RunHMatrixBench(ctx, q, workers)
	if err != nil {
		return err
	}
	header(w, "H-matrix scaling — interconnected grids, SolverHMatrix vs dense")
	fmt.Fprintf(w, "eps %.0e, series tol %.0e, %d workers, seed %d\n",
		hb.Eps, hb.SeriesTol, hb.Workers, hb.Seed)
	for _, r := range hb.Rungs {
		fmt.Fprintf(w, "n=%5d (%5d elems): build %9.0f ms  solve %6.0f ms  cg %3d  ranks ≤%3d avg %5.1f  mem %.3f×",
			r.DoF, r.Elements, r.BuildMs, r.SolveMs, r.CGIterations, r.MaxRank, r.AvgRank, r.Compression)
		if r.DenseMeasured {
			fmt.Fprintf(w, "  | dense asm %8.0f ms factor %6.0f ms  |ΔReq|/Req %.2e", r.DenseAssemblyMs, r.DenseFactorMs, r.ReqRelErr)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "dense fit: assembly ∝ N^%.2f, factor ∝ N^%.2f (over the measured rungs)\n",
		hb.DenseAssemblyExponent, hb.DenseFactorExponent)
	fmt.Fprintf(w, "headline n=%d: hmatrix %.1f s vs dense extrapolated %.1f s → time %.1f%% (bar <10%%), memory %.1f%% (bar <25%%)\n",
		hb.HeadlineDoF, hb.HMatrixTotalMs/1e3, hb.DenseExtrapolatedMs/1e3,
		100*hb.TimeFraction, 100*hb.MemoryFraction)
	fmt.Fprintf(w, "max |ΔReq|/Req over dense-measured rungs: %.2e (bar ≤ 10·ε = %.0e)\n",
		hb.MaxReqRelErr, 10*hb.Eps)
	if jsonPath == "" {
		return nil
	}
	if err := fsio.WriteFile(jsonPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(hb)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "JSON written to", jsonPath)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
