// Package sweep is the batch solve engine: it takes one grounding grid plus
// N scenario variants (soil models, GPR values, optionally per-scenario grid
// overrides) and deduplicates their work, exploiting structure across
// scenarios instead of running N independent pipelines.
//
// Reuse tiers, cheapest first:
//
//  1. Geometry cache — scenarios whose grids serialize identically and whose
//     soil models share interface depths discretize to the same mesh, so the
//     mesh and the quadrature geometry (Gauss positions, weights, shape
//     values; bem.Geometry) are built once per group and shared by every
//     assembler in it.
//  2. Solve reuse — scenarios whose models share a unit model
//     (soil.Normalize: the same model, or one with every conductivity
//     multiplied by a common factor) map to one assembly + factorization
//     at unit GPR and unit γ₁; each variant is an O(1) rescale to its own
//     γ₁ and GPR that is bit-identical to a fresh analysis
//     (core.Result.WithModel), because every analysis solves the unit model.
//  3. Ladder reuse — jobs of one unit model on different meshes (the
//     candidate layouts of a design search) share one bem.Ladder: the
//     image ladder is flattened once per unit model, and the far-field
//     table panels one job builds serve the next. Each job's assembler
//     still decides which tables and classes it uses, so its results are
//     bitwise those of a private ladder. The sweep drops a model's ladder
//     after that model's last job; a caller running several sweeps of one
//     model (designopt) may hand its own in (Options.Ladder).
//  4. Fresh assembly — truly distinct models become assembly jobs, run one
//     at a time in plan order through the stages core.AnalyzeCtx runs after
//     preprocessing (core.AnalyzeAssembler: matrix generation, solve,
//     results). Each job's matrix generation is the assembler's own
//     parallel loop at the configured width, so the workers stay busy
//     inside a job, the results are bit-identical to Analyze by
//     construction, and peak memory is one job's (its assembler, pair-class
//     table and system matrix), however many distinct models the sweep
//     holds.
//
// The sweep solves dense systems only (PCG or Cholesky): the compressed
// tier, Config.Solver = SolverHMatrix, is core.AnalyzeCtx's alone, and Run
// and Stream reject it with ErrUnsupportedSolver before any work starts.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// Scenario is one variant of the swept analysis: a soil model plus the GPR
// the results are scaled to, optionally on its own grid.
type Scenario struct {
	// ID labels the scenario in results (default "s<index>").
	ID string
	// Model is the layered soil model (required).
	Model soil.Model
	// GPR is the ground potential rise in volts (0 selects the sweep
	// config's GPR, itself defaulting to 1).
	GPR float64
	// Grid, when non-nil, overrides the shared grid passed to Run/Stream for
	// this scenario — the multi-grid form the design-synthesis engine batches
	// candidate layouts through. Scenarios whose grids serialize identically
	// (and whose soil models share interface depths) land in the same mesh
	// group, so duplicated candidate layouts pay one assembly between them.
	Grid *grid.Grid
}

// ErrUnsupportedSolver is returned by Run and Stream, before any work
// starts, when Options.Config.Solver is core.SolverHMatrix: the compressed
// tier has no dense system to share between scenarios, so sweep it by
// calling core.AnalyzeCtx per scenario instead.
var ErrUnsupportedSolver = errors.New("sweep: the compressed solver tier is not supported; analyze each scenario instead")

// Options configures a sweep.
type Options struct {
	// Config carries the shared discretization, solver and BEM knobs; its
	// GPR is the default for scenarios that set none. Every job runs it
	// exactly as core.AnalyzeCtx does, BEM loop, schedule and assembly
	// strategy included. Solver must be a dense solver (see
	// ErrUnsupportedSolver).
	Config core.Config
	// Ladder, when non-nil, serves the jobs whose unit model it fits
	// (bem.Ladder.Fits) in place of a ladder of the sweep's own, so a
	// caller running several sweeps of one model shares its image ladder
	// and tables across them. The sweep only reads and extends it.
	Ladder *bem.Ladder
}

// Reuse names which tier produced a scenario's result.
type Reuse string

const (
	// ReuseAssembled marks the scenario that paid the fresh assembly of
	// its (mesh, unit model) job.
	ReuseAssembled Reuse = "assembled"
	// ReuseSolve marks a scenario rescaled from an already-solved job
	// (same unit model, another γ₁ or GPR) — bit-identical to a fresh
	// analysis.
	ReuseSolve Reuse = "solve"
	// ReuseFailed marks a scenario whose assembly job failed — a panicking
	// worker or a failed numerical health check. Res is nil and Err carries
	// the cause; the rest of the batch is unaffected.
	ReuseFailed Reuse = "failed"
)

// Result is one scenario's outcome.
type Result struct {
	// Index is the scenario's position in the input slice.
	Index int
	// ID echoes the scenario ID (defaulted when empty).
	ID string
	// Reuse names the tier that produced Res.
	Reuse Reuse
	// Res is the solved analysis at the scenario's GPR (nil when Err is
	// set).
	Res *core.Result
	// Err is the failure of this scenario's assembly job: a contained
	// worker panic (*sched.PanicError) or a numerical health failure
	// (*core.HealthError). Scenarios sharing the failed job all carry the
	// same Err; scenarios of other jobs complete normally.
	Err error
	// Wall is the time from sweep start to this result's emission.
	Wall time.Duration
	// Assembly is the wall time of this scenario's matrix generation
	// (Res.Timings.MatrixGen; zero for reused tiers).
	Assembly time.Duration
	// Solve is the wall time of the solve and results stages of this
	// scenario's job (zero for reused tiers).
	Solve time.Duration
}

// meshGroup is the geometry-reuse tier: one mesh + quadrature geometry per
// distinct interface-depth signature.
type meshGroup struct {
	warnings []string
	geo      *bem.Geometry
}

// job is one fresh assembly: a distinct (mesh, unit model) pair. Its
// assembler is built when the job runs, so the sweep holds one at a time.
type job struct {
	group *meshGroup
	unit  soil.Model
	soil  string // soil.Canonical(unit): the key of its ladder
	// lastOfSoil marks the unit model's last job in plan order, after which
	// the sweep drops the model's ladder.
	lastOfSoil bool
	scens      []int // scenario indices served by this job, ascending
}

// plan is the grouped, deduplicated work list of a sweep.
type plan struct {
	cfg    core.Config
	models []soil.Model // per-scenario model
	gprs   []float64    // resolved per-scenario GPR
	ids    []string     // resolved per-scenario ID
	jobs   []*job
	// given is Options.Ladder; ladders holds the ladder of every unit
	// model with jobs still to run.
	given   *bem.Ladder
	ladders map[string]*bem.Ladder
}

// depthsKey renders interface depths at full precision.
func depthsKey(depths []float64) string {
	var b strings.Builder
	for _, d := range depths {
		fmt.Fprintf(&b, "%.17g;", d)
	}
	return b.String()
}

// gridKeys canonicalizes scenario grids through their text serialization,
// memoized per pointer: two *grid.Grid values that serialize identically key
// identically, so duplicated candidate layouts collapse into one mesh group.
type gridKeys map[*grid.Grid]string

func (gk gridKeys) key(g *grid.Grid) (string, error) {
	if k, ok := gk[g]; ok {
		return k, nil
	}
	var b strings.Builder
	if err := grid.Write(&b, g); err != nil {
		return "", err
	}
	gk[g] = b.String()
	return b.String(), nil
}

// buildPlan groups scenarios into mesh groups and assembly jobs.
func buildPlan(g *grid.Grid, scenarios []Scenario, opt Options) (*plan, error) {
	cfg := opt.Config
	if cfg.GPR == 0 {
		cfg.GPR = 1
	}
	if cfg.GPR < 0 || math.IsNaN(cfg.GPR) || math.IsInf(cfg.GPR, 0) {
		return nil, fmt.Errorf("sweep: invalid default GPR %g", opt.Config.GPR)
	}
	p := &plan{
		cfg:     cfg,
		models:  make([]soil.Model, len(scenarios)),
		gprs:    make([]float64, len(scenarios)),
		ids:     make([]string, len(scenarios)),
		given:   opt.Ladder,
		ladders: map[string]*bem.Ladder{},
	}
	groups := map[string]*meshGroup{}
	jobsByKey := map[string]*job{}
	gkeys := gridKeys{}

	for i, sc := range scenarios {
		if sc.Model == nil {
			return nil, fmt.Errorf("sweep: scenario %d: nil soil model", i)
		}
		sg := sc.Grid
		if sg == nil {
			sg = g
		}
		if sg == nil {
			return nil, fmt.Errorf("sweep: scenario %d: no grid (nil shared grid and no per-scenario override)", i)
		}
		gpr := sc.GPR
		if gpr == 0 {
			gpr = cfg.GPR
		}
		if gpr <= 0 || math.IsNaN(gpr) || math.IsInf(gpr, 0) {
			return nil, fmt.Errorf("sweep: scenario %d: invalid GPR %g", i, sc.GPR)
		}
		p.models[i] = sc.Model
		p.gprs[i] = gpr
		p.ids[i] = sc.ID
		if p.ids[i] == "" {
			p.ids[i] = fmt.Sprintf("s%d", i)
		}

		gkey, err := gkeys.key(sg)
		if err != nil {
			return nil, fmt.Errorf("sweep: scenario %d: %w", i, err)
		}
		mk := gkey + "\x01" + depthsKey(core.InterfaceDepths(sc.Model))
		grp, ok := groups[mk]
		if !ok {
			mesh, warnings, err := core.BuildMesh(sg, sc.Model, cfg)
			if err != nil {
				return nil, fmt.Errorf("sweep: scenario %d: %w", i, err)
			}
			geo, err := bem.NewGeometry(mesh, cfg.BEM)
			if err != nil {
				return nil, fmt.Errorf("sweep: scenario %d: %w", i, err)
			}
			grp = &meshGroup{warnings: warnings, geo: geo}
			groups[mk] = grp
		}

		unit, _ := soil.Normalize(sc.Model)
		sk := soil.Canonical(unit)
		jk := mk + "\x00" + sk
		if j, ok := jobsByKey[jk]; ok {
			j.scens = append(j.scens, i)
			continue
		}
		j := &job{group: grp, unit: unit, soil: sk, scens: []int{i}}
		jobsByKey[jk] = j
		p.jobs = append(p.jobs, j)
	}
	seen := map[string]bool{}
	for ji := len(p.jobs) - 1; ji >= 0; ji-- {
		j := p.jobs[ji]
		j.lastOfSoil = !seen[j.soil]
		seen[j.soil] = true
	}
	return p, nil
}

// Run executes the sweep and returns one Result per scenario, in input
// order. Scenarios sharing work are deduplicated per the package's reuse
// tiers; see Stream for the incremental form.
func Run(ctx context.Context, g *grid.Grid, scenarios []Scenario, opt Options) ([]Result, error) {
	out := make([]Result, len(scenarios))
	err := Stream(ctx, g, scenarios, opt, func(r Result) error {
		out[r.Index] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream executes the sweep, calling emit for each scenario's result on the
// caller's goroutine. Jobs run one at a time in plan order (the order of
// their first scenarios); each job's scenarios are emitted together —
// the assembled one, then its solve-tier variants — before the next job
// starts, so the sweep holds one job's assembler, system matrix and
// pair-class table at a time, beside the ladder of each unit model with
// jobs still to run. If emit returns an error the sweep stops and
// Stream returns that error. On ctx cancellation the running job stops at
// its next schedule chunk boundary and Stream returns ctx's error; results
// already emitted stay valid.
//
// g is the shared grid; a scenario with a non-nil Grid overrides it. g may be
// nil when every scenario carries its own grid (the design-synthesis multi-grid
// form).
//
// Faults are isolated per assembly job: a panic during one job's matrix
// generation, assembly or solve (*sched.PanicError), a failure to build its
// assembler, or a solver/health failure of its system, emits ReuseFailed results (Err set, Res nil) for
// that job's scenarios while every other job completes normally. Stream
// itself returns nil in that case — per-scenario failures live on the
// Results, not the sweep. A Config.Solver of core.SolverHMatrix returns
// ErrUnsupportedSolver before any work starts.
func Stream(ctx context.Context, g *grid.Grid, scenarios []Scenario, opt Options, emit func(Result) error) error {
	if opt.Config.Solver == core.SolverHMatrix {
		return ErrUnsupportedSolver
	}
	if len(scenarios) == 0 {
		return nil
	}
	p, err := buildPlan(g, scenarios, opt)
	if err != nil {
		return err
	}
	start := time.Now()
	for ji, j := range p.jobs {
		unit, jerr := p.runJob(ctx, ji, j)
		if j.lastOfSoil {
			delete(p.ladders, j.soil)
		}
		if jerr != nil && ctx.Err() != nil {
			// A cancelled sweep, not a failed job.
			return fmt.Errorf("sweep: %w", ctx.Err())
		}
		if err := p.emitJob(j, unit, jerr, start, emit); err != nil {
			return err
		}
	}
	return nil
}

// runJob builds job ji's assembler on its group's shared geometry and its
// unit model's ladder, and analyzes it at unit GPR and unit γ₁. A
// panic on this goroutine (the sequential scatter or solve) fails the job
// alone as a *sched.PanicError; panics inside the parallel loops arrive as
// the same error type through core.
func (p *plan) runJob(ctx context.Context, ji int, j *job) (unit *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			unit, err = nil, &sched.PanicError{Value: v, Stack: debug.Stack(), Iteration: ji}
		}
	}()
	lad := p.ladders[j.soil]
	if lad == nil {
		if lad = p.given; lad == nil || !lad.Fits(j.unit, p.cfg.BEM) {
			lad = bem.NewLadder(j.unit, p.cfg.BEM)
		}
		p.ladders[j.soil] = lad
	}
	asm, err := bem.NewShared(j.group.geo, j.unit, p.cfg.BEM, lad)
	if err != nil {
		return nil, err
	}
	cfg := p.cfg
	cfg.GPR = 1
	return core.AnalyzeAssembler(ctx, asm, j.unit, j.group.warnings, cfg)
}

// emitJob delivers every scenario of a finished job: ReuseFailed results
// carrying jerr when the job failed, otherwise the assembled scenario and its
// solve-tier variants, each the unit solution rescaled to the scenario's own
// model and GPR.
func (p *plan) emitJob(j *job, unit *core.Result, jerr error, start time.Time, emit func(Result) error) error {
	for n, si := range j.scens {
		r := Result{Index: si, ID: p.ids[si], Reuse: ReuseFailed, Err: jerr}
		if jerr == nil {
			r.Reuse = ReuseSolve
			if n == 0 {
				r.Reuse = ReuseAssembled
				r.Assembly = unit.Timings.MatrixGen
				r.Solve = unit.Timings.Solve + unit.Timings.Results
			}
			var err error
			if r.Res, err = unit.WithModel(p.models[si], p.gprs[si]); err != nil {
				return err
			}
		}
		r.Wall = time.Since(start)
		if err := emit(r); err != nil {
			return fmt.Errorf("sweep: emit: %w", err)
		}
	}
	return nil
}
