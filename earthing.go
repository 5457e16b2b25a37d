// Package earthing is a boundary-element solver for the analysis and design
// of substation grounding (earthing) systems in uniform and horizontally
// stratified soils, with OpenMP-style parallel matrix generation.
//
// It reproduces the method and evaluation of I. Colominas, J. Gómez,
// F. Navarrina, M. Casteleiro and J. M. Cela, "Parallel Computing Aided
// Design of Earthing Systems for Electrical Substations in Non Homogeneous
// Soil Models" (ICPP 2000): an approximated 1-D Galerkin BEM over the
// electrode axes (thin-wire hypothesis), layered-soil kernels built from
// infinite image series, a diagonal-preconditioned conjugate-gradient
// solver, and parallel generation of the dense symmetric system matrix.
//
// # Quick start
//
//	g := earthing.RectGrid(0, 0, 60, 60, 7, 7, 0.8, 0.006)
//	model := earthing.TwoLayerSoil(0.005, 0.016, 1.0) // γ1, γ2 (Ω·m)⁻¹, h (m)
//	res, err := earthing.Analyze(ctx, g, model, earthing.Config{GPR: 10_000})
//	// res.Req (Ω), res.Current (A), res.PotentialAt(...) (V)
//
// All entry points are context-first: cancellation is observed at schedule
// chunk boundaries during matrix generation and at raster-point boundaries
// during post-processing. Use context.Background() when you don't need it.
// Many scenario variants of one grid solve fastest as a batch — see Sweep.
//
// The deeper packages remain internal; everything a downstream design tool
// needs is re-exported here.
package earthing

import (
	"context"
	"io"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/post"
	"earthing/internal/safety"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// Re-exported geometry types.
type (
	// Vec3 is a 3-D point; z is depth, positive downwards.
	Vec3 = geom.Vec3
	// Segment is a straight electrode axis segment.
	Segment = geom.Segment
)

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return geom.V(x, y, z) }

// Re-exported grid model.
type (
	// Grid is a grounding grid: a set of buried cylindrical conductors.
	Grid = grid.Grid
	// Conductor is one straight bare cylindrical electrode.
	Conductor = grid.Conductor
	// Mesh is a discretized grid.
	Mesh = grid.Mesh
	// ElementKind selects linear or constant leakage elements.
	ElementKind = grid.ElementKind
)

// Element kinds.
const (
	Linear   = grid.Linear
	Constant = grid.Constant
)

// RectGrid builds a rectangular grounding mesh (see grid.RectMesh).
func RectGrid(x0, y0, width, height float64, nx, ny int, depth, radius float64) *Grid {
	return grid.RectMesh(x0, y0, width, height, nx, ny, depth, radius)
}

// TriangleGrid builds a right-triangle grounding mesh (see grid.TriangleMesh).
func TriangleGrid(legX, legY float64, nx, ny int, depth, radius float64) *Grid {
	return grid.TriangleMesh(legX, legY, nx, ny, depth, radius)
}

// RectGridGraded builds a rectangular mesh with line spacings compressed
// toward the edges (grading factor beta ∈ [0, 1)), the layout practical
// designs use because leakage concentrates at the perimeter.
func RectGridGraded(x0, y0, width, height float64, nx, ny int, depth, radius, beta float64) *Grid {
	return grid.RectMeshGraded(x0, y0, width, height, nx, ny, depth, radius, beta)
}

// TriangleGridGraded is TriangleGrid with edge-compressed spacings.
func TriangleGridGraded(legX, legY float64, nx, ny int, depth, radius, beta float64) *Grid {
	return grid.TriangleMeshGraded(legX, legY, nx, ny, depth, radius, beta)
}

// Barbera returns the Barberá substation grid of the paper's Example 1.
func Barbera() *Grid { return grid.Barbera() }

// Balaidos returns the Balaidos substation grid of the paper's Example 2.
func Balaidos() *Grid { return grid.Balaidos() }

// InterconnectedGrid returns a randomized multi-substation grounding system
// of roughly n degrees of freedom: several rod-cornered lattices joined by
// tie conductors, the workload of the compressed-solver tier (WithHMatrix).
// The same (n, seed) always yields the identical geometry.
func InterconnectedGrid(n int, seed int64) *Grid { return grid.Interconnected(n, seed) }

// ReadGrid parses a grid from its text format.
func ReadGrid(r io.Reader) (*Grid, error) { return grid.Read(r) }

// WriteGrid serializes a grid to its text format.
func WriteGrid(w io.Writer, g *Grid) error { return grid.Write(w, g) }

// Discretize subdivides a grid into boundary elements (maxElemLen ≤ 0 keeps
// one element per conductor).
func Discretize(g *Grid, kind ElementKind, maxElemLen float64) (*Mesh, error) {
	return grid.Discretize(g, kind, maxElemLen)
}

// SoilModel describes a horizontally stratified soil (see internal/soil).
type SoilModel = soil.Model

// UniformSoil returns the single-layer soil model with conductivity gamma in
// (Ω·m)⁻¹.
func UniformSoil(gamma float64) SoilModel { return soil.NewUniform(gamma) }

// TwoLayerSoil returns the two-layer soil model: top layer conductivity
// gamma1 and thickness h (m) over an infinite layer of conductivity gamma2.
func TwoLayerSoil(gamma1, gamma2, h float64) SoilModel {
	return soil.NewTwoLayer(gamma1, gamma2, h)
}

// MultiLayerSoil returns the general C-layer model (numeric Hankel-transform
// kernels; much slower than UniformSoil/TwoLayerSoil).
func MultiLayerSoil(gammas, thicknesses []float64) (SoilModel, error) {
	return soil.NewMultiLayer(gammas, thicknesses)
}

// Analysis engine re-exports.
type (
	// Config configures an analysis (GPR, discretization, solver, BEM
	// parallel options).
	Config = core.Config
	// Result is a solved analysis (Req, current, potentials, timings).
	Result = core.Result
	// StageTimings holds per-pipeline-stage durations (Table 6.1).
	StageTimings = core.StageTimings
	// SolverKind selects PCG, Cholesky or SolverHMatrix.
	SolverKind = core.SolverKind
	// BEMOptions configures matrix generation (workers, schedule, loop
	// strategy, series tolerance).
	BEMOptions = bem.Options
	// Schedule is an OpenMP-style loop schedule (kind + chunk).
	Schedule = sched.Schedule
	// LoopStrategy selects outer- or inner-loop parallelization.
	LoopStrategy = bem.LoopStrategy
	// KernelStrategy names the image-series inner-integral arithmetic;
	// FlatKernel is its only value.
	//
	// Deprecated: matrix generation has one kernel; leave
	// BEMOptions.Kernel unset.
	KernelStrategy = bem.KernelStrategy
	// HealthError reports a failed numerical health check (enable with
	// Config.HealthCheck): non-finite systems or solutions, indefinite or
	// ill-conditioned matrices. Detect with errors.As.
	HealthError = core.HealthError
	// PanicError is a panic contained inside a parallel loop worker,
	// surfaced as an error with the faulting iteration, worker and stack.
	// Detect with errors.As.
	PanicError = sched.PanicError
)

// Solver kinds.
const (
	PCG = core.PCG
	// Cholesky is the direct solver: a tiled packed factorization whose
	// results are bit-identical at every worker count.
	Cholesky = core.Cholesky
	// CholeskyBlocked is an alias of Cholesky, kept for existing callers.
	//
	// Deprecated: use Cholesky.
	CholeskyBlocked = core.CholeskyBlocked
	// SolverHMatrix compresses the system into a hierarchical matrix (ACA on
	// the admissible far field, dense near-field leaves) and solves it with
	// near-field-preconditioned conjugate gradients — O(N·log N)-ish memory
	// and time instead of the dense O(N²)/O(N³). Accuracy follows the block
	// tolerance (WithHMatrix); small systems degrade to dense PCG with a
	// warning when compression fails.
	SolverHMatrix = core.SolverHMatrix
)

// Loop strategies and the kernel strategy.
const (
	OuterLoop = bem.OuterLoop
	InnerLoop = bem.InnerLoop
	// FlatKernel, the only kernel, streams the shared image ladder through a
	// hoisted log-form inner integral.
	//
	// Deprecated: it is the only kernel; leave BEMOptions.Kernel unset.
	FlatKernel = bem.FlatKernel
)

// Schedule kinds.
const (
	Static  = sched.Static
	Dynamic = sched.Dynamic
	Guided  = sched.Guided
)

// ParseSchedule parses labels like "dynamic,1" or "static,16".
func ParseSchedule(s string) (Schedule, error) { return sched.ParseSchedule(s) }

// Analyze runs the full pipeline — preprocessing (interface splitting,
// discretization), parallel matrix generation, solve, results — on a grid.
// The parallel matrix-generation loop observes ctx at schedule chunk
// boundaries, so an abandoned analysis stops burning cores mid-assembly;
// the error wraps ctx.Err() when cut short. Options are applied on top of
// cfg (see Option).
func Analyze(ctx context.Context, g *Grid, model SoilModel, cfg Config, opts ...Option) (*Result, error) {
	return core.AnalyzeCtx(ctx, g, model, applyOptions(cfg, opts))
}

// AnalyzeMesh analyzes an explicitly discretized mesh, with the
// cancellation semantics of Analyze.
func AnalyzeMesh(ctx context.Context, m *Mesh, model SoilModel, cfg Config, opts ...Option) (*Result, error) {
	return core.AnalyzeMeshCtx(ctx, m, model, applyOptions(cfg, opts))
}

// Rehydrate rebuilds a solved Result from a previously stored density
// without re-running matrix generation or the solve: only the deterministic
// preprocessing and results stages execute, so a density produced by
// Analyze of the same scenario yields bit-identical design parameters at a
// tiny fraction of the cost. The density is a Result.Sigma: the one at unit
// GPR and unit top-layer conductivity γ₁ (physical A/m is GPR·γ₁·Sigma), so
// a model with every conductivity scaled by one factor rehydrates the same
// vector. This is how groundd warm-starts from its durable scenario store
// and serves entries fetched from fleet peers. A density that does not match
// the scenario's discretization (or is physically inconsistent) is rejected
// with an error.
func Rehydrate(g *Grid, model SoilModel, sigma []float64, cfg Config, opts ...Option) (*Result, error) {
	return core.Rehydrate(g, model, sigma, applyOptions(cfg, opts))
}

// AnalyzeReader parses a grid from its text format and analyzes it, with
// the cancellation semantics of Analyze.
func AnalyzeReader(ctx context.Context, r io.Reader, model SoilModel, cfg Config, opts ...Option) (*Result, error) {
	return core.AnalyzeReaderCtx(ctx, r, model, applyOptions(cfg, opts))
}

// Post-processing re-exports.
type (
	// Raster is a sampled surface scalar field.
	Raster = post.Raster
	// SurfaceOptions configures surface-potential sampling.
	SurfaceOptions = post.SurfaceOptions
	// ContourLine is one equipotential polyline.
	ContourLine = post.ContourLine
	// Voltages aggregates touch/step/mesh voltages.
	Voltages = post.Voltages
)

// SurfacePotential samples the earth-surface potential of a solved analysis
// over its grid footprint (plus margin), in volts at the configured GPR.
// Cancellation is observed at raster-point boundaries.
func SurfacePotential(ctx context.Context, res *Result, opt SurfaceOptions) (*Raster, error) {
	return post.SurfacePotentialCtx(ctx, res.Assembler(), res.Mesh, res.Sigma, res.GPR, opt)
}

// PotentialProfile samples the surface potential at n ≥ 2 evenly spaced
// points along a straight line, returning arc coordinates and volts at the
// configured GPR. Cancellation is observed at point boundaries.
func PotentialProfile(ctx context.Context, res *Result, x0, y0, x1, y1 float64, n int) (s, v []float64, err error) {
	return post.ProfilePotential(ctx, res.Assembler(), res.Sigma, res.GPR, x0, y0, x1, y1, n, SurfaceOptions{})
}

// StepVoltageMap samples the per-metre step voltage |E_h|·1 m over the grid
// footprint (plus margin) at the configured GPR — the gradient counterpart
// of SurfacePotential, evaluated through the batched field engine.
// Cancellation is observed at raster-point boundaries.
func StepVoltageMap(ctx context.Context, res *Result, opt SurfaceOptions) (*Raster, error) {
	return post.EFieldSurfaceCtx(ctx, res.Assembler(), res.Mesh, res.Sigma, res.GPR, opt)
}

// ComputeVoltages estimates touch, step and mesh voltages from a solved
// analysis (raster resolution stepRes metres; ≤ 0 selects 1 m), with
// cooperative cancellation of the underlying raster evaluation plus
// worker/schedule knobs via opt.
func ComputeVoltages(ctx context.Context, res *Result, stepRes float64, opt SurfaceOptions) (Voltages, error) {
	return post.ComputeVoltagesCtx(ctx, res.Assembler(), res.Mesh, res.Sigma, res.GPR, stepRes, opt)
}

// Contours extracts equipotential polylines from a raster.
func Contours(r *Raster, levels []float64) []ContourLine { return post.Contours(r, levels) }

// ContourLevels returns n equally spaced levels inside the raster range.
func ContourLevels(r *Raster, n int) []float64 { return post.EquallySpacedLevels(r, n) }

// WriteRasterCSV emits a raster as x,y,v rows.
func WriteRasterCSV(w io.Writer, r *Raster) error { return post.WriteCSV(w, r) }

// WriteRasterASCII renders a raster as a terminal heat map.
func WriteRasterASCII(w io.Writer, r *Raster) error { return post.WriteASCII(w, r) }

// WriteContoursSVG renders contour lines as an SVG document.
func WriteContoursSVG(w io.Writer, r *Raster, lines []ContourLine) error {
	return post.WriteSVG(w, r, lines)
}

// Safety re-exports (IEEE Std 80 criteria).
type (
	// SafetyCriteria holds fault duration, soil and surface-layer data.
	SafetyCriteria = safety.Criteria
	// SafetyVerdict is the outcome of a limits check.
	SafetyVerdict = safety.Verdict
	// BodyWeight selects the 50 kg or 70 kg body model.
	BodyWeight = safety.BodyWeight
)

// Body models.
const (
	Body50kg = safety.Body50kg
	Body70kg = safety.Body70kg
)

// FractionExceeding reports the fraction of sampled values above limit —
// e.g. the share of a StepVoltageMap raster that breaks the step limit.
func FractionExceeding(values []float64, limit float64) float64 {
	return safety.FractionExceeding(values, limit)
}
