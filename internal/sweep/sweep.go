// Package sweep is the batch solve engine: it takes one grounding grid plus
// N scenario variants (soil models, GPR values, optionally per-scenario grid
// overrides) and schedules all of their matrix work through a single shared
// worker pool, exploiting structure across scenarios instead of running N
// independent pipelines.
//
// Reuse tiers, cheapest first:
//
//  1. Geometry cache — scenarios whose grids serialize identically and whose
//     soil models share interface depths discretize to the same mesh, so the
//     mesh and the quadrature geometry (Gauss positions, weights, shape
//     values; bem.Geometry) are built once per group and shared by every
//     assembler in it.
//  2. Solve reuse — scenarios differing only in GPR map to one assembly +
//     factorization at unit GPR; each variant is an O(1) rescale that is
//     bit-identical to a fresh analysis at that GPR (core.Result.WithGPR).
//  3. Scaled reuse (opt-in) — a model that is another scenario's model with
//     every conductivity multiplied by one exact factor s has σ' = s·σ and
//     R' = R/s; mathematically exact but not bit-identical to a fresh
//     assembly, so Options.AllowScaled gates it.
//  4. Fresh assembly — truly distinct models become independent assembly
//     jobs whose element-pair columns are interleaved on one sched.For
//     loop, so the pool never idles between scenarios and the assembled
//     systems stay bit-identical to Analyze's store-then-assemble path.
//
// Under Config.Solver = SolverHMatrix the fresh-assembly tier changes shape:
// each job runs the whole compressed pipeline (core.CompleteHMatrix) as one
// work unit on the shared loop, with the pool width divided across the
// concurrent jobs. The reuse tiers and the per-job fault isolation are
// unchanged — both operate on the solved unit result, which the compressed
// and dense paths produce alike.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/faultinject"
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

// Options configures a sweep.
type Options struct {
	// Config carries the shared discretization, solver and BEM knobs; its
	// GPR is the default for scenarios that set none. The BEM Loop and
	// Assembly strategies are ignored: the sweep always generates matrices
	// column-wise into a store and assembles sequentially (the
	// deterministic store-then-assemble path) — except under
	// Solver = SolverHMatrix, where each job runs the compressed pipeline
	// whole (no dense store exists to stream).
	Config core.Config
	// AllowScaled enables the scaled-reuse tier: scenarios whose model is
	// an exact conductivity multiple of another scenario's are derived by
	// scaling instead of assembled. Exact in real arithmetic, but not
	// bit-identical to a fresh assembly — hence opt-in.
	AllowScaled bool
}

// Reuse names which tier produced a scenario's result.
type Reuse string

const (
	// ReuseAssembled marks the scenario that paid the fresh assembly of
	// its (mesh, model) job.
	ReuseAssembled Reuse = "assembled"
	// ReuseSolve marks a scenario rescaled from an already-solved job
	// (same model, different GPR) — bit-identical to a fresh analysis.
	ReuseSolve Reuse = "solve"
	// ReuseScaled marks a scenario derived through the opt-in
	// proportional-conductivity tier.
	ReuseScaled Reuse = "scaled"
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
	// Assembly is the aggregate worker-busy time spent generating this
	// scenario's system matrix (zero for reused tiers).
	Assembly time.Duration
	// Solve is the wall time of the assemble-scatter + factorization +
	// solve of this scenario's job (zero for reused tiers).
	Solve time.Duration
}

// meshGroup is the geometry-reuse tier: one mesh + quadrature geometry per
// distinct interface-depth signature.
type meshGroup struct {
	mesh     *grid.Mesh
	warnings []string
	geo      *bem.Geometry
}

// job is one fresh assembly: a distinct (mesh, model) pair. In the dense
// solvers it is a stream of matrix columns interleaved with other jobs; under
// Config.Solver = SolverHMatrix it is a single work unit that runs the whole
// compressed pipeline (cluster tree, ACA build, preconditioned CG) in one
// worker while sibling jobs occupy the rest of the pool.
type job struct {
	group *meshGroup
	model soil.Model
	asm   *bem.Assembler
	units int   // work units on the shared loop: NumColumns, or 1 (hmatrix)
	scens []int // scenario indices served by this job, ascending
	// scaled lists the proportional models derived from this job's
	// solution (AllowScaled tier).
	scaled []*scaledTier

	// store is the job's elemental-matrix store (nil for H-matrix jobs),
	// classified by Stream before the shared loop starts.
	store *bem.PairStore
	// hres is the unit-GPR result of an H-matrix job (nil for column jobs
	// and for failed jobs).
	hres      *core.Result
	remaining atomic.Int64
	busyNanos atomic.Int64
	// failErr holds the first failure of this job (worker panic, health
	// check); once set, the job's remaining columns are skipped and its
	// scenarios are emitted as ReuseFailed results.
	failErr atomic.Pointer[error]
}

// fail records the job's first failure; later failures are dropped.
func (j *job) fail(err error) {
	j.failErr.CompareAndSwap(nil, &err)
}

// failed returns the job's failure, or nil while it is healthy.
func (j *job) failed() error {
	if p := j.failErr.Load(); p != nil {
		return *p
	}
	return nil
}

// scaledTier is one proportional model hanging off a base job.
type scaledTier struct {
	model soil.Model
	scale float64
	asm   *bem.Assembler
	scens []int
}

// plan is the grouped, deduplicated work list of a sweep.
type plan struct {
	cfg     core.Config
	hmatrix bool      // Solver == SolverHMatrix: jobs are single units
	gprs    []float64 // resolved per-scenario GPR
	ids     []string  // resolved per-scenario ID
	jobs    []*job
	offsets []int // offsets[j] = first global work-unit index of jobs[j]
	total   int   // total work units across jobs
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
		hmatrix: cfg.Solver == core.SolverHMatrix,
		gprs:    make([]float64, len(scenarios)),
		ids:     make([]string, len(scenarios)),
	}
	groups := map[string]*meshGroup{}
	jobsByKey := map[string]*job{}
	scaledByKey := map[string]*scaledTier{}
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
			grp = &meshGroup{mesh: mesh, warnings: warnings, geo: geo}
			groups[mk] = grp
		}

		jk := mk + "\x00" + soil.Canonical(sc.Model)
		if j, ok := jobsByKey[jk]; ok {
			j.scens = append(j.scens, i)
			continue
		}
		if st, ok := scaledByKey[jk]; ok {
			st.scens = append(st.scens, i)
			continue
		}
		if opt.AllowScaled {
			// Try to hang this model off an existing job of the same mesh
			// group as a proportional derivation.
			var attached bool
			for _, j := range p.jobs {
				if j.group != grp {
					continue
				}
				s, ok := soil.Proportional(j.model, sc.Model)
				//lint:ignore floatcmp scale exactly 1 means an identical model, which the dedup tier above already serves
				if !ok || s == 1 {
					continue
				}
				asm, err := bem.NewWithGeometry(grp.geo, sc.Model, cfg.BEM)
				if err != nil {
					return nil, fmt.Errorf("sweep: scenario %d: %w", i, err)
				}
				st := &scaledTier{model: sc.Model, scale: s, asm: asm, scens: []int{i}}
				j.scaled = append(j.scaled, st)
				scaledByKey[jk] = st
				attached = true
				break
			}
			if attached {
				continue
			}
		}
		asm, err := bem.NewWithGeometry(grp.geo, sc.Model, cfg.BEM)
		if err != nil {
			return nil, fmt.Errorf("sweep: scenario %d: %w", i, err)
		}
		j := &job{
			group: grp,
			model: sc.Model,
			asm:   asm,
			units: asm.NumColumns(),
			scens: []int{i},
		}
		if p.hmatrix {
			// The compressed pipeline builds and solves as one unit; the
			// pool width is split across concurrent jobs instead, inside
			// each job's own build loop (see Stream).
			j.units = 1
		}
		j.remaining.Store(int64(j.units))
		jobsByKey[jk] = j
		p.jobs = append(p.jobs, j)
	}

	p.offsets = make([]int, len(p.jobs))
	for j, jb := range p.jobs {
		p.offsets[j] = p.total
		p.total += jb.units
	}
	return p, nil
}

// locate maps a global column index to (job, local column).
func (p *plan) locate(i int) (*job, int) {
	j := sort.Search(len(p.offsets), func(k int) bool { return p.offsets[k] > i }) - 1
	return p.jobs[j], i - p.offsets[j]
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

// Stream executes the sweep, calling emit for each scenario's result as soon
// as its job completes (completion order, not input order; scenarios of one
// job are emitted together, ascending). emit calls are serialized. If emit
// returns an error the sweep is cancelled and Stream returns that error.
// On ctx cancellation the workers stop at the next schedule chunk boundary
// and Stream returns ctx's error; results already emitted stay valid.
//
// g is the shared grid; a scenario with a non-nil Grid overrides it. g may be
// nil when every scenario carries its own grid (the design-synthesis multi-grid
// form).
//
// Faults are isolated per assembly job: a worker panic during one job's
// columns, or a solver/health failure of one job's system, emits ReuseFailed
// results (Err set, Res nil) for that job's scenarios while every other job
// completes normally. Stream itself returns nil in that case — per-scenario
// failures live on the Results, not the sweep.
func Stream(ctx context.Context, g *grid.Grid, scenarios []Scenario, opt Options, emit func(Result) error) error {
	if len(scenarios) == 0 {
		return nil
	}
	workers := opt.Config.BEM.Workers
	maxW := workers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	p, err := buildPlan(g, scenarios, opt)
	if err != nil {
		return err
	}
	if !p.hmatrix {
		for _, j := range p.jobs {
			if j.store, err = j.asm.NewPairStore(ctx); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
		}
	}
	// Per-worker scratch arenas, shared across every job a worker touches:
	// scratch memory scales with the worker count, not workers × jobs, and a
	// worker hopping between same-shaped jobs reuses one warm scratch.
	arenas := make([]*bem.Arena, maxW+1)
	schedule := p.cfg.BEM.Schedule
	if schedule.IsZero() {
		schedule = sched.Schedule{Kind: sched.Dynamic, Chunk: 1}
	}

	ictx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var mu sync.Mutex // serializes emissions and guards firstErr
	var firstErr error
	start := time.Now()

	// send delivers one result; callers must hold mu. An emit error cancels
	// the whole sweep (the consumer is gone — nothing left to isolate for).
	send := func(r Result) bool {
		if err := emit(r); err != nil {
			firstErr = fmt.Errorf("sweep: emit: %w", err)
			cancel(firstErr)
			return false
		}
		return true
	}

	// emitFailed delivers a failed job's scenarios as ReuseFailed results —
	// the per-job fault isolation path: one poisoned or panicking scenario
	// reports its error while the rest of the batch completes.
	emitFailed := func(j *job, jerr error) {
		wall := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil {
			return
		}
		one := func(si int) bool {
			return send(Result{Index: si, ID: p.ids[si], Reuse: ReuseFailed, Err: jerr, Wall: wall})
		}
		for _, si := range j.scens {
			if !one(si) {
				return
			}
		}
		for _, st := range j.scaled {
			for _, si := range st.scens {
				if !one(si) {
					return
				}
			}
		}
	}

	// finalize assembles, solves and emits a completed job. It runs inside
	// the worker that computed the job's last column while other workers
	// continue on the remaining jobs' columns. Numerical failures (solver,
	// health checks) fail this job alone. H-matrix jobs arrive here already
	// solved (the unit result is stored on the job); finalize only emits.
	finalize := func(j *job) {
		if ictx.Err() != nil {
			return
		}
		var (
			unit            *core.Result
			err             error
			solve, assembly time.Duration
		)
		if p.hmatrix {
			unit = j.hres
			j.hres = nil
			solve, assembly = unit.Timings.Solve, unit.Timings.MatrixGen
		} else {
			t0 := time.Now()
			rmat := j.store.Assemble()
			j.store = nil
			cfgUnit := p.cfg
			cfgUnit.GPR = 1
			unit, err = core.CompleteAssembled(j.asm, j.model, rmat, sched.Stats{}, j.group.warnings, cfgUnit)
			if err != nil {
				emitFailed(j, err)
				return
			}
			solve = time.Since(t0)
			assembly = time.Duration(j.busyNanos.Load())
		}

		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil {
			return
		}
		for n, si := range j.scens {
			res := unit
			//lint:ignore floatcmp exact unit-GPR sentinel: the job solved at GPR 1, so only other values need the rescale clone
			if p.gprs[si] != 1 {
				res, err = unit.WithGPR(p.gprs[si])
				if err != nil {
					firstErr = err
					cancel(err)
					return
				}
			}
			r := Result{Index: si, ID: p.ids[si], Reuse: ReuseSolve, Res: res, Wall: time.Since(start)}
			if n == 0 {
				r.Reuse, r.Assembly, r.Solve = ReuseAssembled, assembly, solve
			}
			if !send(r) {
				return
			}
		}
		for _, st := range j.scaled {
			for _, si := range st.scens {
				res, err := core.ScaledResult(unit, st.model, st.asm, st.scale, p.gprs[si])
				if err != nil {
					firstErr = err
					cancel(err)
					return
				}
				if !send(Result{Index: si, ID: p.ids[si], Reuse: ReuseScaled, Res: res, Wall: time.Since(start)}) {
					return
				}
			}
		}
	}

	// computeColumn runs one column of one job with the panic contained to
	// that job: a panicking kernel (or injected fault) marks the job failed
	// instead of unwinding the shared loop, so sibling jobs keep assembling.
	computeColumn := func(j *job, local, w, global int) {
		defer func() {
			if v := recover(); v != nil {
				j.fail(&sched.PanicError{Value: v, Stack: debug.Stack(), Iteration: global, Worker: w})
			}
		}()
		// Largest column first within each job, matching the assembler's
		// own outer loop so late chunks are small.
		beta := j.asm.NumColumns() - 1 - local
		wi := w
		if wi >= len(arenas) {
			wi = len(arenas) - 1
		}
		if arenas[wi] == nil {
			arenas[wi] = &bem.Arena{}
		}
		t0 := time.Now()
		j.store.ComputeColumn(beta, j.asm.ColumnScratchFromArena(arenas[wi]))
		if faultinject.Active() {
			faultinject.Fire(faultinject.SweepColumn, global, j.store.ColumnRange(beta))
		}
		j.busyNanos.Add(int64(time.Since(t0)))
	}

	// runHMatrixJob runs one scenario's whole compressed pipeline as a single
	// work unit, with the same per-job fault containment as computeColumn: a
	// panic or a typed failure (poisoned ACA block, stalled CG, health check)
	// marks this job failed and leaves sibling jobs untouched. The pool width
	// is divided across the concurrent jobs so a multi-scenario sweep does not
	// oversubscribe workers² goroutines; the division cannot change results —
	// the compressed build and matvec are bit-identical across worker counts.
	runHMatrixJob := func(j *job, w, global int) {
		defer func() {
			if v := recover(); v != nil {
				j.fail(&sched.PanicError{Value: v, Stack: debug.Stack(), Iteration: global, Worker: w})
			}
		}()
		cfgUnit := p.cfg
		cfgUnit.GPR = 1
		inner := maxW / len(p.jobs)
		if inner < 1 {
			inner = 1
		}
		cfgUnit.BEM.Workers = inner
		res, err := core.CompleteHMatrix(ictx, j.asm, j.model, j.group.warnings, cfgUnit)
		if err != nil {
			if ictx.Err() == nil {
				j.fail(err)
			}
			return
		}
		j.hres = res
	}

	// completeJob dispatches a job whose last work unit just finished: failed
	// jobs emit error results, healthy ones assemble (dense) and emit.
	completeJob := func(j *job) {
		if err := j.failed(); err != nil {
			emitFailed(j, err)
			return
		}
		finalize(j)
	}

	_, loopErr := sched.ForStatsCtx(ictx, p.total, workers, schedule, func(i, w int) {
		j, local := p.locate(i)
		// Work units of an already-failed job are skipped (their output
		// would be discarded) but still counted, so the job reaches
		// completion and reports its scenarios.
		if j.failed() == nil {
			if p.hmatrix {
				runHMatrixJob(j, w, i)
			} else {
				computeColumn(j, local, w, i)
			}
		}
		if j.remaining.Add(-1) == 0 {
			completeJob(j)
		}
	})

	mu.Lock()
	err = firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	if loopErr != nil {
		return fmt.Errorf("sweep: %w", loopErr)
	}
	return nil
}
