// Package core implements the grounding-analysis engine: the five-stage
// pipeline whose per-stage CPU times the paper reports in Table 6.1 —
// data input, data preprocessing, matrix generation, linear system solving
// and results storage — wired over the substrate packages (grid, soil, bem,
// linalg, sched).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"earthing/internal/bem"
	"earthing/internal/faultinject"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/hmatrix"
	"earthing/internal/linalg"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// SolverKind selects the linear solver for system (4.4).
type SolverKind int

const (
	// PCG is the diagonal preconditioned conjugate gradient solver the
	// paper recommends for large systems (§4.3). Default.
	PCG SolverKind = iota
	// Cholesky is the direct O(N³/3) solver (§4.3): the tiled packed
	// factorization linalg.NewCholeskyBlocked, bit-identical to the
	// reference column sweep at every worker count.
	Cholesky
	// CholeskyMixed is Cholesky with float32 trailing updates and float64
	// iterative refinement of every solve. Results agree with the
	// full-precision solvers to float64 working accuracy; if refinement
	// cannot repair the float32 factor (hopelessly conditioned system) the
	// engine refactors in full precision rather than serving a degraded
	// solution.
	CholeskyMixed
	// SolverHMatrix skips dense assembly entirely: the system is compressed
	// into a hierarchical matrix (ACA on the η-admissible far field, dense
	// near-field leaves) and solved by near-field-preconditioned conjugate
	// gradients on the implicit operator. Accuracy is governed by
	// Config.HMatrix.Eps; below HMatrixConfig.DenseFallbackN a failed
	// compressed run degrades to dense PCG with a Result warning.
	SolverHMatrix
)

// CholeskyBlocked is an alias of Cholesky, kept for existing callers.
//
// Deprecated: use Cholesky.
const CholeskyBlocked = Cholesky

// String implements fmt.Stringer.
func (s SolverKind) String() string {
	switch s {
	case PCG:
		return "pcg"
	case Cholesky:
		return "cholesky"
	case CholeskyMixed:
		return "cholesky-mixed"
	case SolverHMatrix:
		return "hmatrix"
	default:
		return fmt.Sprintf("SolverKind(%d)", int(s))
	}
}

// Config configures an analysis. The zero value analyzes with a unit GPR,
// one linear element per conductor (the paper's discretization), PCG solve
// and default BEM options.
type Config struct {
	// GPR is the Ground Potential Rise in volts (default 1; the potential
	// and current outputs scale linearly with it, §2).
	GPR float64
	// ElementKind selects linear (default) or constant elements.
	ElementKind grid.ElementKind
	// MaxElemLen subdivides conductors into elements no longer than this;
	// ≤ 0 keeps one element per conductor.
	MaxElemLen float64
	// RodElements, when > 0, forces vertical conductors that were not split
	// at an interface to that many elements (the Balaidos discretization
	// uses 2).
	RodElements int
	// BEM configures matrix generation (schedules, loop strategy, series
	// tolerance, workers).
	BEM bem.Options
	// Solver selects PCG (default), Cholesky, CholeskyMixed or SolverHMatrix.
	Solver SolverKind
	// CGTol is the PCG relative-residual target (default 1e-10).
	CGTol float64
	// HMatrix tunes the compressed solver tier (Solver = SolverHMatrix):
	// block tolerance, admissibility, leaf size, rank cap and the dense
	// fallback threshold.
	HMatrix HMatrixConfig
	// HealthCheck enables the numerical health checks around the solve
	// stage: the system matrix and load vector are scanned for NaN/Inf
	// before factorization, the solved density is scanned afterwards, and
	// the matrix conditioning is estimated. Failures surface as a typed
	// *HealthError instead of silently serving garbage.
	HealthCheck bool
	// CondLimit is the condition-number estimate above which a
	// health-checked analysis fails (default 1e12). Estimates within a
	// factor 10⁴ of the limit pass with a warning on the Result.
	CondLimit float64
}

// StageTimings records wall-clock time per pipeline stage (Table 6.1 rows).
type StageTimings struct {
	Input      time.Duration
	Preprocess time.Duration
	MatrixGen  time.Duration
	Solve      time.Duration
	Results    time.Duration
}

// Total sums all stages.
func (t StageTimings) Total() time.Duration {
	return t.Input + t.Preprocess + t.MatrixGen + t.Solve + t.Results
}

// Result is the outcome of a grounding analysis.
type Result struct {
	Mesh  *grid.Mesh
	Model soil.Model
	// Sigma is the solved leakage line density per DoF for a unit GPR
	// (multiply by GPR for physical A/m).
	Sigma []float64
	// GPR echoes the configured ground potential rise in volts.
	GPR float64
	// Req is the equivalent grounding resistance in ohms (eq. 2.2).
	Req float64
	// Current is the total fault current IΓ in amperes at the configured
	// GPR.
	Current float64
	// Timings holds the per-stage durations.
	Timings StageTimings
	// LoopStats describes how matrix generation distributed work.
	LoopStats sched.Stats
	// CG reports solver convergence (PCG and SolverHMatrix).
	CG linalg.CGResult
	// HMatrix holds the compression statistics of a SolverHMatrix run
	// (zero for dense solvers and after a dense fallback).
	HMatrix hmatrix.BuildStats
	// Condition is the 2-norm condition estimate of the system matrix,
	// populated only when Config.HealthCheck is enabled (0 otherwise).
	Condition float64
	// Warnings lists non-fatal modelling issues found during preprocessing
	// (e.g. an electrically fragmented grid — the solver still imposes the
	// equipotential condition on every conductor, but a floating electrode
	// usually indicates a data-entry error).
	Warnings []string

	// unitCurrent is the total leakage current at unit GPR (= 1/Req); kept
	// so GPR-rescaled clones (WithGPR) reproduce Current with the exact
	// floating-point expression the pipeline used.
	unitCurrent float64

	asm *bem.Assembler
}

// WithGPR returns a copy of the result rescaled to a different ground
// potential rise. Sigma (a unit-GPR density), Req, the mesh and the
// assembler are shared unchanged; Current is recomputed as gpr·I₁ with the
// same expression the pipeline uses, so the clone is bit-identical to a
// fresh analysis of the same scenario at that GPR.
func (r *Result) WithGPR(gpr float64) (*Result, error) {
	if gpr <= 0 || math.IsNaN(gpr) || math.IsInf(gpr, 0) {
		return nil, fmt.Errorf("core: invalid GPR %g", gpr)
	}
	c := *r
	c.GPR = gpr
	c.Current = gpr * r.unitCurrent
	return &c, nil
}

// PotentialAt returns the earth potential in volts at x for the configured
// GPR (eq. 4.2).
func (r *Result) PotentialAt(x geom.Vec3) float64 {
	return r.GPR * r.asm.Evaluator().PotentialAt(x, r.Sigma)
}

// Assembler exposes the underlying BEM assembler (for batch post-processing).
func (r *Result) Assembler() *bem.Assembler { return r.asm }

// Analyze runs preprocessing, matrix generation, solve and results stages on
// a grounding grid. The grid is split at the soil-model interfaces
// automatically.
func Analyze(g *grid.Grid, model soil.Model, cfg Config) (*Result, error) {
	//lint:ignore ctxflow synchronous compatibility wrapper; the ctx-first variant is the primary API
	return analyze(context.Background(), g, nil, model, cfg, 0)
}

// AnalyzeCtx is Analyze with cooperative cancellation: the matrix-generation
// loop observes ctx at schedule chunk boundaries (so an abandoned request
// stops mid-assembly), and the pipeline checks ctx between stages. The solve
// stage itself runs to completion once started — for the systems this engine
// targets it is < 0.1 % of the assembly cost (Table 6.1).
func AnalyzeCtx(ctx context.Context, g *grid.Grid, model soil.Model, cfg Config) (*Result, error) {
	return analyze(ctx, g, nil, model, cfg, 0)
}

// AnalyzeMesh runs the pipeline on an explicitly discretized mesh, e.g. the
// paper-exact discretizations grid.BarberaMesh and grid.BalaidosMesh. The
// mesh must already respect the model's layer interfaces.
func AnalyzeMesh(m *grid.Mesh, model soil.Model, cfg Config) (*Result, error) {
	//lint:ignore ctxflow synchronous compatibility wrapper; the ctx-first variant is the primary API
	return analyze(context.Background(), nil, m, model, cfg, 0)
}

// AnalyzeMeshCtx is AnalyzeMesh with the cancellation semantics of
// AnalyzeCtx.
func AnalyzeMeshCtx(ctx context.Context, m *grid.Mesh, model soil.Model, cfg Config) (*Result, error) {
	return analyze(ctx, nil, m, model, cfg, 0)
}

// AnalyzeReader parses a grid from r (grid text format) and analyzes it,
// populating the Data Input stage timing.
func AnalyzeReader(rd io.Reader, model soil.Model, cfg Config) (*Result, error) {
	//lint:ignore ctxflow synchronous compatibility wrapper; the ctx-first variant is the primary API
	return AnalyzeReaderCtx(context.Background(), rd, model, cfg)
}

// AnalyzeReaderCtx is AnalyzeReader with the cancellation semantics of
// AnalyzeCtx.
func AnalyzeReaderCtx(ctx context.Context, rd io.Reader, model soil.Model, cfg Config) (*Result, error) {
	start := time.Now()
	g, err := grid.Read(rd)
	if err != nil {
		return nil, fmt.Errorf("core: data input: %w", err)
	}
	return analyze(ctx, g, nil, model, cfg, time.Since(start))
}

// InterfaceDepths extracts the layer interface depths of a model — the
// depths the grid must be split at before discretization. Two models with
// equal InterfaceDepths discretize a grid into the same mesh, which is the
// mesh-grouping criterion of the sweep engine.
func InterfaceDepths(model soil.Model) []float64 { return interfaceDepths(model) }

// interfaceDepths extracts the layer interface depths of a model.
func interfaceDepths(model soil.Model) []float64 {
	var depths []float64
	// Interfaces are where LayerOf changes; models expose layer count, and
	// the two concrete layered models both mark the interface as belonging
	// to the upper layer. Probe with bisection over a generous depth range.
	n := model.NumLayers()
	if n <= 1 {
		return nil
	}
	const maxDepth = 1 << 20
	lo := 0.0
	for layer := 1; layer < n; layer++ {
		a, b := lo, float64(maxDepth)
		// Invariant: LayerOf(a) ≤ layer, LayerOf(b) ≥ layer+1.
		for i := 0; i < 200 && b-a > 1e-12*(1+b); i++ {
			mid := 0.5 * (a + b)
			if model.LayerOf(mid) <= layer {
				a = mid
			} else {
				b = mid
			}
		}
		depths = append(depths, a)
		lo = a
	}
	return depths
}

// validGPR applies the unit-GPR default and validates the result.
func validGPR(cfg *Config) error {
	if cfg.GPR == 0 {
		cfg.GPR = 1
	}
	if cfg.GPR < 0 || math.IsNaN(cfg.GPR) {
		return fmt.Errorf("core: invalid GPR %g", cfg.GPR)
	}
	return nil
}

// BuildMesh runs the preprocessing geometry stage of the pipeline: bonding
// check (returned as warnings), interface splitting for the model, and
// discretization under the config's element knobs. It is deterministic in
// (g, InterfaceDepths(model), cfg), so scenarios whose models share
// interface depths can share the returned mesh.
func BuildMesh(g *grid.Grid, model soil.Model, cfg Config) (*grid.Mesh, []string, error) {
	var warnings []string
	if err := g.CheckBonding(); err != nil {
		warnings = append(warnings, err.Error())
	}
	split := g.SplitAtDepths(interfaceDepths(model)...)
	mesh, err := grid.DiscretizeN(split, cfg.ElementKind, func(c grid.Conductor) int {
		n := 1
		if cfg.MaxElemLen > 0 {
			n = int(math.Ceil(c.Length() / cfg.MaxElemLen))
		}
		if cfg.RodElements > 0 && c.Seg.IsVertical(1e-9) && n < cfg.RodElements {
			n = cfg.RodElements
		}
		if n < 1 {
			n = 1
		}
		return n
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: preprocess: %w", err)
	}
	return mesh, warnings, nil
}

// solveSystem runs the linear-system-solving stage into res.
func solveSystem(res *Result, r *linalg.SymMatrix, cfg Config) error {
	start := time.Now()
	nu := bem.RHS(res.Mesh)
	faultinject.Fire(faultinject.Solve, r.Order(), nu)
	if cfg.HealthCheck {
		if err := preSolveHealth(r, nu); err != nil {
			return err
		}
	}
	// A direct-solver factorization is retained for the post-solve health
	// check, whose condition estimate then reuses (and caches on) the handle
	// instead of refactoring the system.
	var chol *linalg.Cholesky
	switch cfg.Solver {
	case PCG:
		tol := cfg.CGTol
		if tol <= 0 {
			tol = 1e-10
		}
		cg, err := linalg.SolveCGParallel(r, nu, linalg.CGOptions{Tol: tol}, cfg.BEM.Workers)
		if err != nil {
			return fmt.Errorf("core: solve: %w", err)
		}
		if !cg.Converged {
			return fmt.Errorf("core: solve: PCG stalled at residual %g", cg.Residual)
		}
		res.CG = cg
		res.Sigma = cg.X
	case Cholesky, CholeskyMixed:
		opt := linalg.FactorOpts{Workers: cfg.BEM.Workers, Mixed: cfg.Solver == CholeskyMixed}
		ch, err := linalg.NewCholeskyBlocked(r, opt)
		if err != nil {
			return fmt.Errorf("core: solve: %w", err)
		}
		x, err := ch.Solve(nu)
		if errors.Is(err, linalg.ErrRefinementStalled) {
			// The float32 factor cannot be refined to float64 accuracy on
			// this system. Refusing to degrade silently, refactor in full
			// precision and record what happened.
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"core: solve: %v; refactored in full precision", err))
			opt.Mixed = false
			if ch, err = linalg.NewCholeskyBlocked(r, opt); err != nil {
				return fmt.Errorf("core: solve: full-precision fallback: %w", err)
			}
			x, err = ch.Solve(nu)
		}
		if err != nil {
			return fmt.Errorf("core: solve: %w", err)
		}
		chol = ch
		res.Sigma = x
	case SolverHMatrix:
		// The compressed tier owns its own pipeline stages; an externally
		// assembled dense system has nothing left to compress.
		return fmt.Errorf("core: SolverHMatrix cannot solve an externally assembled dense system; use CompleteHMatrix")
	default:
		return fmt.Errorf("core: unknown solver %v", cfg.Solver)
	}
	if cfg.HealthCheck {
		if err := postSolveHealth(res, r, cfg, chol); err != nil {
			return err
		}
	}
	res.Timings.Solve = time.Since(start)
	return nil
}

// finishResults runs the results stage: design parameters from the solved
// density (eq. 2.2).
func finishResults(res *Result, gpr float64) error {
	start := time.Now()
	unitCurrent := bem.TotalCurrent(res.Mesh, res.Sigma)
	if unitCurrent <= 0 || math.IsNaN(unitCurrent) {
		return fmt.Errorf("core: results: non-physical total current %g", unitCurrent)
	}
	res.unitCurrent = unitCurrent
	res.Req = 1 / unitCurrent
	res.Current = gpr * unitCurrent
	res.Timings.Results = time.Since(start)
	return nil
}

// CompleteAssembled finishes the pipeline for an externally generated system
// matrix r (e.g. one the sweep engine assembled column-by-column through
// bem.PairStore.ComputeColumn/Assemble): it runs the solve and results
// stages exactly as the full pipeline does, so the outcome is bit-identical
// to Analyze of the same (mesh, model, cfg) scenario. warnings are the
// preprocessing warnings of BuildMesh; stats describes the loop that
// generated the matrix (zero if unknown).
func CompleteAssembled(asm *bem.Assembler, model soil.Model, r *linalg.SymMatrix, stats sched.Stats, warnings []string, cfg Config) (*Result, error) {
	if err := validGPR(&cfg); err != nil {
		return nil, err
	}
	res := &Result{
		Mesh:      asm.Mesh(),
		Model:     model,
		GPR:       cfg.GPR,
		LoopStats: stats,
		Warnings:  warnings,
		asm:       asm,
	}
	if err := solveSystem(res, r, cfg); err != nil {
		return nil, err
	}
	if err := finishResults(res, cfg.GPR); err != nil {
		return nil, err
	}
	return res, nil
}

// Rehydrate rebuilds a solved Result from a previously computed unit-GPR
// density (e.g. one replayed from groundd's durable scenario store) without
// re-running matrix generation or the solve — the two stages that are ≫ 99 %
// of Analyze (Table 6.1). Only the deterministic preprocessing (interface
// splitting, discretization, assembler setup) and the results stage run, so
// for a sigma produced by Analyze of the same (g, model, cfg) scenario the
// rebuilt Result reports bit-identical design parameters: Req and Current
// are recomputed with exactly the expressions finishResults uses on the
// fresh path. The density is validated against the mesh's DoF count and the
// results stage's physicality check, so a corrupted sigma yields an error,
// never a plausible-looking wrong answer.
func Rehydrate(g *grid.Grid, model soil.Model, sigma []float64, cfg Config) (*Result, error) {
	if err := validGPR(&cfg); err != nil {
		return nil, err
	}
	mesh, warnings, err := BuildMesh(g, model, cfg)
	if err != nil {
		return nil, err
	}
	if len(sigma) != mesh.NumDoF {
		return nil, fmt.Errorf("core: rehydrate: density has %d entries, mesh has %d DoF", len(sigma), mesh.NumDoF)
	}
	asm, err := bem.New(mesh, model, cfg.BEM)
	if err != nil {
		return nil, fmt.Errorf("core: preprocess: %w", err)
	}
	res := &Result{
		Mesh:     mesh,
		Model:    model,
		Sigma:    sigma,
		GPR:      cfg.GPR,
		Warnings: warnings,
		asm:      asm,
	}
	if err := finishResults(res, cfg.GPR); err != nil {
		return nil, err
	}
	return res, nil
}

// Footprint estimates the resident bytes a retained Result pins: the solved
// density, the mesh (72 B per element, 24 B per node position) and the
// assembler's precomputed quadrature data, shared image ladder and the
// field-evaluation plans built so far. An estimate for cache
// byte-accounting, not an exact allocator census; TestFootprintTracksRetainedHeap
// holds it within 2× of the measured retained heap.
func (r *Result) Footprint() int64 {
	if r == nil {
		return 256
	}
	n := int64(len(r.Sigma)) * 8
	if r.Mesh != nil {
		n += int64(len(r.Mesh.Elements))*72 + int64(len(r.Mesh.NodePos))*24
	}
	if r.asm != nil {
		n += r.asm.Footprint()
	}
	return n + 256
}

// ScaledResult derives the solution for a soil model proportional to the
// base result's (every conductivity multiplied by scale, identical layer
// geometry) without re-assembly or re-solve: the BEM kernels scale by
// 1/scale, so σ scales by scale, R_eq by 1/scale. asm must be an assembler
// of the target model over the same mesh (it serves post-processing —
// potentials, rasters — with the correct kernels; its Matrix is never
// called). The derivation is mathematically exact but NOT bit-identical to
// a fresh assembly under the target model, so callers opt in explicitly.
func ScaledResult(base *Result, model soil.Model, asm *bem.Assembler, scale, gpr float64) (*Result, error) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("core: invalid conductivity scale %g", scale)
	}
	if gpr <= 0 || math.IsNaN(gpr) || math.IsInf(gpr, 0) {
		return nil, fmt.Errorf("core: invalid GPR %g", gpr)
	}
	sigma := make([]float64, len(base.Sigma))
	for i, v := range base.Sigma {
		sigma[i] = scale * v
	}
	res := &Result{
		Mesh:        base.Mesh,
		Model:       model,
		Sigma:       sigma,
		GPR:         gpr,
		Warnings:    base.Warnings,
		unitCurrent: scale * base.unitCurrent,
		asm:         asm,
	}
	res.Req = 1 / res.unitCurrent
	res.Current = gpr * res.unitCurrent
	return res, nil
}

func analyze(ctx context.Context, g *grid.Grid, mesh *grid.Mesh, model soil.Model, cfg Config, inputTime time.Duration) (*Result, error) {
	if err := validGPR(&cfg); err != nil {
		return nil, err
	}
	res := &Result{Model: model, GPR: cfg.GPR}
	res.Timings.Input = inputTime

	// Stage: data preprocessing — interface splitting, discretization, DoF
	// numbering, assembler setup (element Gauss data, kernel expansions).
	start := time.Now()
	if mesh == nil {
		var warnings []string
		var err error
		mesh, warnings, err = BuildMesh(g, model, cfg)
		if err != nil {
			return nil, err
		}
		res.Warnings = warnings
	}
	res.Mesh = mesh
	asm, err := bem.New(mesh, model, cfg.BEM)
	if err != nil {
		return nil, fmt.Errorf("core: preprocess: %w", err)
	}
	res.asm = asm
	res.Timings.Preprocess = time.Since(start)

	// The compressed tier replaces both the dense matrix-generation and the
	// packed solve stages (degrading to them on small systems when the
	// compression or the iterative solve fails).
	if cfg.Solver == SolverHMatrix {
		if err := runHMatrixWithFallback(ctx, res, asm, cfg); err != nil {
			return nil, err
		}
		if err := finishResults(res, cfg.GPR); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Stage: matrix generation — the dominant cost for layered soils
	// (Table 6.1) and the parallelized loop (§6.2).
	start = time.Now()
	r, stats, err := asm.MatrixCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: matrix generation: %w", err)
	}
	res.LoopStats = stats
	res.Timings.MatrixGen = time.Since(start)

	// Stage: linear system solving.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: solve: %w", err)
	}
	if err := solveSystem(res, r, cfg); err != nil {
		return nil, err
	}

	// Stage: results.
	if err := finishResults(res, cfg.GPR); err != nil {
		return nil, err
	}
	return res, nil
}
