// Package core implements the grounding-analysis engine: the five-stage
// pipeline whose per-stage CPU times the paper reports in Table 6.1 —
// data input, data preprocessing, matrix generation, linear system solving
// and results storage — wired over the substrate packages (grid, soil, bem,
// linalg, sched).
package core

import (
	"context"
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
	// Solver selects PCG (default), Cholesky or SolverHMatrix.
	Solver SolverKind
	// HMatrix tunes the compressed solver tier (Solver = SolverHMatrix):
	// block tolerance, admissibility, leaf size and the dense fallback
	// threshold.
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
	Mesh *grid.Mesh
	// Model is the soil model the result reports: Req, Current and
	// DensityScale follow its top-layer conductivity γ₁.
	Model soil.Model
	// Sigma is the solved leakage line density per DoF of the unit model
	// (soil.Normalize) at unit GPR: the same vector for every model with
	// that unit model. Multiply by DensityScale, GPR·γ₁, for physical A/m.
	// The Assembler is built on the unit model, so potentials and fields
	// read Sigma unchanged.
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

	// unitCurrent is the total leakage current of Sigma, at unit GPR and
	// unit γ₁; rescale derives Req and Current from it.
	unitCurrent float64

	asm *bem.Assembler
}

// WithModel returns a copy of the result for model at gpr. model must have
// the unit model (soil.Normalize) of the model r was solved for: r's own, or
// any model whose conductivities are all one common multiple of its. Sigma,
// the mesh and the assembler are shared unchanged; Req and Current are
// recomputed by the expressions the pipeline itself ends with, so the copy is
// bit-identical to a fresh analysis of model at gpr.
func (r *Result) WithModel(model soil.Model, gpr float64) (*Result, error) {
	if gpr <= 0 || math.IsNaN(gpr) || math.IsInf(gpr, 0) {
		return nil, fmt.Errorf("core: invalid GPR %g", gpr)
	}
	c := *r
	c.rescale(model, gpr)
	return &c, nil
}

// WithGPR returns a copy of the result at a different ground potential rise
// (WithModel of the result's own model).
func (r *Result) WithGPR(gpr float64) (*Result, error) { return r.WithModel(r.Model, gpr) }

// rescale applies model's γ₁ and gpr to the unit solution: the one place the
// conductivity scale enters the pipeline's outputs. The physical current at
// unit GPR is γ₁·I₁, so Req = 1/(γ₁·I₁) and Current = gpr·γ₁·I₁.
func (r *Result) rescale(model soil.Model, gpr float64) {
	_, gamma1 := soil.Normalize(model)
	current := gamma1 * r.unitCurrent
	r.Model, r.GPR = model, gpr
	r.Req = 1 / current
	r.Current = gpr * current
}

// DensityScale returns GPR·γ₁, the factor that turns Sigma into the physical
// leakage line density in A/m (and the unit model's current density into
// the physical one).
func (r *Result) DensityScale() float64 {
	_, gamma1 := soil.Normalize(r.Model)
	return r.GPR * gamma1
}

// PotentialAt returns the earth potential in volts at x for the configured
// GPR (eq. 4.2).
func (r *Result) PotentialAt(x geom.Vec3) float64 {
	return r.GPR * r.asm.Evaluator().PotentialAt(x, r.Sigma)
}

// Assembler exposes the underlying BEM assembler (for batch post-processing).
func (r *Result) Assembler() *bem.Assembler { return r.asm }

// AnalyzeCtx runs preprocessing, matrix generation, solve and results
// stages on a grounding grid; the grid is split at the soil-model interfaces
// automatically. The matrix-generation loop observes ctx at schedule chunk
// boundaries (so an abandoned request stops mid-assembly), and the pipeline
// checks ctx between stages. The solve stage itself runs to completion once
// started — for the systems this engine targets it is < 0.1 % of the
// assembly cost (Table 6.1).
func AnalyzeCtx(ctx context.Context, g *grid.Grid, model soil.Model, cfg Config) (*Result, error) {
	return analyze(ctx, g, nil, model, cfg, 0)
}

// AnalyzeMeshCtx runs the pipeline of AnalyzeCtx on an explicitly
// discretized mesh, e.g. the paper-exact discretizations grid.BarberaMesh and
// grid.BalaidosMesh. The mesh must already respect the model's layer
// interfaces.
func AnalyzeMeshCtx(ctx context.Context, m *grid.Mesh, model soil.Model, cfg Config) (*Result, error) {
	return analyze(ctx, nil, m, model, cfg, 0)
}

// AnalyzeReaderCtx parses a grid from rd (grid text format) and analyzes it
// with the cancellation semantics of AnalyzeCtx, populating the Data Input
// stage timing.
func AnalyzeReaderCtx(ctx context.Context, rd io.Reader, model soil.Model, cfg Config) (*Result, error) {
	start := time.Now()
	g, err := grid.Read(rd)
	if err != nil {
		return nil, fmt.Errorf("core: data input: %w", err)
	}
	return analyze(ctx, g, nil, model, cfg, time.Since(start))
}

// InterfaceDepths returns the layer interface depths of a model — the
// depths the grid must be split at before discretization. Two models with
// equal InterfaceDepths discretize a grid into the same mesh.
func InterfaceDepths(model soil.Model) []float64 {
	_, depths := model.LayerParameters()
	return append([]float64(nil), depths...)
}

// validGPR applies the unit-GPR default and validates the result.
func validGPR(cfg *Config) error {
	if cfg.GPR == 0 {
		cfg.GPR = 1
	}
	if cfg.GPR < 0 || math.IsNaN(cfg.GPR) || math.IsInf(cfg.GPR, 1) {
		return fmt.Errorf("core: invalid GPR %g", cfg.GPR)
	}
	return nil
}

// BuildMesh runs the preprocessing geometry stage of the pipeline: bonding
// check (returned as warnings), interface splitting for the model, and
// discretization under the config's element knobs. It is deterministic in
// (g, InterfaceDepths(model), cfg).
func BuildMesh(g *grid.Grid, model soil.Model, cfg Config) (*grid.Mesh, []string, error) {
	var warnings []string
	if err := g.CheckBonding(); err != nil {
		warnings = append(warnings, err.Error())
	}
	split := g.SplitAtDepths(InterfaceDepths(model)...)
	mesh, err := grid.DiscretizeN(split, cfg.ElementKind, func(c grid.Conductor) int {
		return elementsOf(c, cfg)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: preprocess: %w", err)
	}
	return mesh, warnings, nil
}

// maxConductorElements bounds elementsOf, so a hostile MaxElemLen cannot
// overflow the int conversion or a sum of per-conductor counts.
const maxConductorElements = 1 << 30

// elementsOf is the per-conductor discretization rule of BuildMesh: one
// element, or ⌈length / MaxElemLen⌉ when MaxElemLen is set, and at least
// RodElements for a vertical conductor.
func elementsOf(c grid.Conductor, cfg Config) int {
	n := 1
	if cfg.MaxElemLen > 0 {
		n = int(math.Min(math.Ceil(c.Length()/cfg.MaxElemLen), maxConductorElements))
	}
	if cfg.RodElements > 0 && c.Seg.IsVertical(1e-9) && n < cfg.RodElements {
		n = min(cfg.RodElements, maxConductorElements)
	}
	return max(n, 1)
}

// CountElements returns the number of elements BuildMesh would discretize g
// into under model and cfg, without building the mesh: the grid is split at
// the model's interfaces and each conductor counted by BuildMesh's own rule.
// It lets a service refuse an oversized scenario before allocating anything
// proportional to it.
func CountElements(g *grid.Grid, model soil.Model, cfg Config) int {
	n := 0
	for _, c := range g.SplitAtDepths(InterfaceDepths(model)...).Conductors {
		n += elementsOf(c, cfg)
	}
	return n
}

// cgTol is the relative-residual target of both conjugate-gradient solves:
// dense PCG and the compressed tier's preconditioned CG.
const cgTol = 1e-10

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
		cg, err := linalg.SolveCGParallel(r, nu, linalg.CGOptions{Tol: cgTol}, cfg.BEM.Workers)
		if err != nil {
			return fmt.Errorf("core: solve: %w", err)
		}
		if !cg.Converged {
			return fmt.Errorf("core: solve: PCG stalled at residual %g", cg.Residual)
		}
		res.CG = cg
		res.Sigma = cg.X
	case Cholesky:
		ch, err := linalg.NewCholeskyBlocked(r, linalg.FactorOpts{Workers: cfg.BEM.Workers})
		if err != nil {
			return fmt.Errorf("core: solve: %w", err)
		}
		x, err := ch.Solve(nu)
		if err != nil {
			return fmt.Errorf("core: solve: %w", err)
		}
		chol = ch
		res.Sigma = x
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

// finishResults runs the results stage: design parameters of model at gpr
// from the solved unit density (eq. 2.2).
func finishResults(res *Result, model soil.Model, gpr float64) error {
	start := time.Now()
	unitCurrent := bem.TotalCurrent(res.Mesh, res.Sigma)
	if unitCurrent <= 0 || math.IsNaN(unitCurrent) {
		return fmt.Errorf("core: results: non-physical total current %g", unitCurrent)
	}
	res.unitCurrent = unitCurrent
	res.rescale(model, gpr)
	res.Timings.Results = time.Since(start)
	return nil
}

// AnalyzeAssembler runs the matrix-generation, solve and results stages of
// AnalyzeCtx on a prebuilt assembler — the pipeline after preprocessing,
// with the same cancellation semantics. asm must be built on the unit model
// of model (soil.Normalize), as AnalyzeCtx builds its own. AnalyzeCtx runs
// these stages through here, so any caller holding an assembler of the same
// (mesh, unit model, cfg.BEM) scenario gets a bit-identical result; a design
// search builds its candidates' assemblers on its shared ladder
// (bem.NewShared) and analyzes each through here. warnings are the
// preprocessing warnings of BuildMesh. cfg.Solver must be a dense solver:
// the compressed tier never generates the dense matrix.
func AnalyzeAssembler(ctx context.Context, asm *bem.Assembler, model soil.Model, warnings []string, cfg Config) (*Result, error) {
	if err := validGPR(&cfg); err != nil {
		return nil, err
	}
	if cfg.Solver == SolverHMatrix {
		return nil, fmt.Errorf("core: SolverHMatrix has no dense matrix-generation stage; use AnalyzeCtx")
	}
	res := &Result{Mesh: asm.Mesh(), Warnings: warnings, asm: asm}

	// Stage: matrix generation — the dominant cost for layered soils
	// (Table 6.1) and the parallelized loop (§6.2).
	start := time.Now()
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
	if err := finishResults(res, model, cfg.GPR); err != nil {
		return nil, err
	}
	return res, nil
}

// Rehydrate rebuilds a solved Result from a previously computed density
// (e.g. one replayed from groundd's durable scenario store) without
// re-running matrix generation or the solve, the two stages that are ≫ 99 %
// of AnalyzeCtx (Table 6.1). sigma is a Result.Sigma: the unit-GPR, unit-γ₁
// density, shared by every model with model's unit model (soil.Normalize).
// Only the deterministic preprocessing (interface splitting, discretization,
// assembler setup) and the results stage run, so for a sigma produced by
// AnalyzeCtx of the same (g, unit model, cfg) scenario the rebuilt Result
// reports bit-identical design parameters: Req and Current are recomputed
// with exactly the expressions finishResults uses on the fresh path. The
// density is validated against the mesh's DoF count and the results stage's
// physicality check, so a corrupted sigma yields an error, never a
// plausible-looking wrong answer.
func Rehydrate(g *grid.Grid, model soil.Model, sigma []float64, cfg Config) (*Result, error) {
	if err := validGPR(&cfg); err != nil {
		return nil, err
	}
	asm, warnings, err := preprocess(g, nil, model, cfg)
	if err != nil {
		return nil, err
	}
	mesh := asm.Mesh()
	if len(sigma) != mesh.NumDoF {
		return nil, fmt.Errorf("core: rehydrate: density has %d entries, mesh has %d DoF", len(sigma), mesh.NumDoF)
	}
	res := &Result{Mesh: mesh, Sigma: sigma, Warnings: warnings, asm: asm}
	if err := finishResults(res, model, cfg.GPR); err != nil {
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

func analyze(ctx context.Context, g *grid.Grid, mesh *grid.Mesh, model soil.Model, cfg Config, inputTime time.Duration) (*Result, error) {
	if err := validGPR(&cfg); err != nil {
		return nil, err
	}

	// Stage: data preprocessing — interface splitting, discretization, DoF
	// numbering, assembler setup (element Gauss data, kernel expansions) on
	// the unit model, so proportional models solve one system.
	start := time.Now()
	asm, warnings, err := preprocess(g, mesh, model, cfg)
	if err != nil {
		return nil, err
	}
	preprocessed := time.Since(start)

	// The compressed tier replaces both the dense matrix-generation and the
	// packed solve stages (degrading to them on small systems when the
	// compression or the iterative solve fails).
	var res *Result
	if cfg.Solver == SolverHMatrix {
		res, err = analyzeHMatrix(ctx, asm, model, warnings, cfg)
	} else {
		res, err = AnalyzeAssembler(ctx, asm, model, warnings, cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Timings.Input = inputTime
	res.Timings.Preprocess = preprocessed
	return res, nil
}

// preprocess runs the data-preprocessing stage: BuildMesh of g when no mesh
// is given, then the assembler setup on the unit model (soil.Normalize), so
// proportional models solve one system.
func preprocess(g *grid.Grid, mesh *grid.Mesh, model soil.Model, cfg Config) (*bem.Assembler, []string, error) {
	var warnings []string
	if mesh == nil {
		var err error
		if mesh, warnings, err = BuildMesh(g, model, cfg); err != nil {
			return nil, nil, err
		}
	}
	unit, _ := soil.Normalize(model)
	asm, err := bem.New(mesh, unit, cfg.BEM)
	if err != nil {
		return nil, nil, fmt.Errorf("core: preprocess: %w", err)
	}
	return asm, warnings, nil
}
