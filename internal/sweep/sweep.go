// Package sweep is the batch solve engine: it takes one grounding grid plus
// N scenario variants (soil models and GPR values) and deduplicates their
// work, exploiting structure across scenarios instead of running N
// independent pipelines.
//
// Reuse tiers, cheapest first:
//
//  1. Solve reuse — scenarios whose models share a unit model
//     (soil.Normalize: the same model, or one with every conductivity
//     multiplied by a common factor) map to one analysis at unit GPR and
//     unit γ₁; each variant is an O(1) rescale to its own γ₁ and GPR that
//     is bit-identical to a fresh analysis (core.Result.WithModel),
//     because every analysis solves the unit model.
//  2. Fresh assembly — truly distinct unit models become jobs, run one at
//     a time in plan order through core.AnalyzeCtx. Each job's matrix
//     generation is the assembler's own parallel loop at the configured
//     width, so the workers stay busy inside a job, the results are
//     bit-identical to Analyze by construction, and peak memory is one
//     job's (its mesh, assembler, image ladder, pair-class table and
//     system matrix), however many distinct models the sweep holds.
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
	"time"

	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// Scenario is one variant of the swept analysis: a soil model plus the GPR
// the results are scaled to.
type Scenario struct {
	// ID labels the scenario in results (default "s<index>").
	ID string
	// Soil is the layered soil model (required).
	Soil soil.Model
	// GPR is the ground potential rise in volts: 0 selects the sweep
	// config's GPR (itself defaulting to 1), and a negative value is an
	// error.
	GPR float64
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
}

// Reuse names which tier produced a scenario's result.
type Reuse string

const (
	// ReuseAssembled marks the scenario that paid the fresh assembly of
	// its unit model's job.
	ReuseAssembled Reuse = "assembled"
	// ReuseSolve marks a scenario rescaled from an already-solved job
	// (same unit model, another γ₁ or GPR) — bit-identical to a fresh
	// analysis.
	ReuseSolve Reuse = "solve"
	// ReuseFailed marks a scenario whose assembly job failed — a failed
	// preprocessing of its model, a panicking worker or a failed numerical
	// health check. Res is nil and Err carries the cause; the rest of the
	// batch is unaffected.
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
	// Err is the failure of this scenario's assembly job: a preprocessing
	// error, a contained worker panic (*sched.PanicError) or a numerical
	// health failure (*core.HealthError). Scenarios sharing the failed job
	// all carry the same Err; scenarios of other jobs complete normally.
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

// job is one fresh assembly: a distinct unit model. Its analysis runs when
// the job does, so the sweep holds one at a time.
type job struct {
	unit  soil.Model
	scens []int // scenario indices served by this job, ascending
}

// plan is the grouped, deduplicated work list of a sweep.
type plan struct {
	g      *grid.Grid
	cfg    core.Config
	models []soil.Model // per-scenario model
	gprs   []float64    // resolved per-scenario GPR
	ids    []string     // resolved per-scenario ID
	jobs   []*job
}

// buildPlan validates the grid and the scenarios and groups the scenarios
// into assembly jobs.
func buildPlan(g *grid.Grid, scenarios []Scenario, opt Options) (*plan, error) {
	cfg := opt.Config
	if cfg.GPR == 0 {
		cfg.GPR = 1
	}
	if cfg.GPR < 0 || math.IsNaN(cfg.GPR) || math.IsInf(cfg.GPR, 0) {
		return nil, fmt.Errorf("sweep: invalid default GPR %g", opt.Config.GPR)
	}
	if g == nil {
		return nil, errors.New("sweep: nil grid")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	p := &plan{
		g:      g,
		cfg:    cfg,
		models: make([]soil.Model, len(scenarios)),
		gprs:   make([]float64, len(scenarios)),
		ids:    make([]string, len(scenarios)),
	}
	jobsByKey := map[string]*job{}

	for i, sc := range scenarios {
		if sc.Soil == nil {
			return nil, fmt.Errorf("sweep: scenario %d: nil soil model", i)
		}
		gpr := sc.GPR
		if gpr == 0 {
			gpr = cfg.GPR
		}
		if gpr <= 0 || math.IsNaN(gpr) || math.IsInf(gpr, 0) {
			return nil, fmt.Errorf("sweep: scenario %d: invalid GPR %g", i, sc.GPR)
		}
		p.models[i] = sc.Soil
		p.gprs[i] = gpr
		p.ids[i] = sc.ID
		if p.ids[i] == "" {
			p.ids[i] = fmt.Sprintf("s%d", i)
		}

		unit, _ := soil.Normalize(sc.Soil)
		jk := soil.Canonical(unit)
		if j, ok := jobsByKey[jk]; ok {
			j.scens = append(j.scens, i)
			continue
		}
		j := &job{unit: unit, scens: []int{i}}
		jobsByKey[jk] = j
		p.jobs = append(p.jobs, j)
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
// pair-class table at a time. If emit returns an error the sweep stops and
// Stream returns that error. On ctx cancellation the running job stops at
// its next schedule chunk boundary and Stream returns ctx's error; results
// already emitted stay valid.
//
// Faults are isolated per assembly job: a failed preprocessing of its
// model (discretization or assembler setup), a panic during its matrix
// generation, assembly or solve (*sched.PanicError), or a solver/health
// failure of its system emits ReuseFailed results (Err set, Res nil) for
// that job's scenarios while every other job completes normally. Stream
// itself returns nil in that case — per-scenario failures live on the
// Results, not the sweep. A nil or invalid grid, a nil model, an invalid
// GPR or a Config.Solver of core.SolverHMatrix (ErrUnsupportedSolver) fails
// the sweep before any work starts.
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

// runJob analyzes job ji's unit model at unit GPR through core.AnalyzeCtx.
// A panic on this goroutine (the sequential scatter or solve) fails the job
// alone as a *sched.PanicError; panics inside the parallel loops arrive as
// the same error type through core.
func (p *plan) runJob(ctx context.Context, ji int, j *job) (unit *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			unit, err = nil, &sched.PanicError{Value: v, Stack: debug.Stack(), Iteration: ji}
		}
	}()
	cfg := p.cfg
	cfg.GPR = 1
	return core.AnalyzeCtx(ctx, p.g, j.unit, cfg)
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
