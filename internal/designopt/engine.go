package designopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/faultinject"
	"earthing/internal/grid"
	"earthing/internal/optimize"
	"earthing/internal/post"
	"earthing/internal/soil"
)

// failPenalty is the finite objective of a candidate whose evaluation failed
// (contained panic, health failure, poisoned values). Finite on purpose:
// optimize.NelderMead rejects NaN/Inf starts and its simplex arithmetic
// assumes finite values, so a poisoned candidate must rank terribly rather
// than derail the descent.
const failPenalty = 1e12

// Options configures a search. The zero value selects the defaults
// documented per field.
type Options struct {
	// Config carries the discretization/solver/BEM knobs for the candidate
	// analyses; its GPR is ignored (candidates solve at unit GPR and rescale
	// through the fault current).
	Config core.Config
	// Starts is the multi-start count: that many Nelder–Mead descents run in
	// lockstep, their evaluation requests batched per round (default 4).
	Starts int
	// Seed drives the deterministic start-point generator (default 1).
	Seed int64
	// MaxEvals bounds the total objective requests across all starts
	// (default 250 per start). Requests served from the evaluation cache
	// count toward the bound but cost no solve.
	MaxEvals int
	// PenaltyWeight scales the constraint penalty: objective =
	// cost·(1 + w·(p + p²)) with p the summed relative limit excesses
	// (default 20 — an excess of 1 % already costs ≈20 % of the design,
	// dominating the cost gap between adjacent lattice densities).
	PenaltyWeight float64
}

// The Nelder–Mead stopping tolerances of every start (optimize.Options):
// the quantized landscape is piecewise constant, so tighter tolerances only
// burn budget.
const (
	tolF = 1e-6
	tolX = 1e-3
)

func (o Options) withDefaults() Options {
	if o.Starts <= 0 {
		o.Starts = 4
	}
	if o.MaxEvals <= 0 {
		o.MaxEvals = 250 * o.Starts
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.PenaltyWeight <= 0 {
		o.PenaltyWeight = 20
	}
	return o
}

// Stats counts the search's work.
type Stats struct {
	// Generations is the number of lockstep evaluation rounds.
	Generations int `json:"generations"`
	// Requested is the total objective calls issued by the starts.
	Requested int `json:"requested"`
	// Evaluated is the number of unique candidates actually solved — the
	// denominator of the "thousands of solves per request" claim.
	Evaluated int `json:"evaluated"`
	// CacheHits is Requested − Evaluated: objective calls served without a
	// solve (quantization collisions and cross-start revisits).
	CacheHits int `json:"cache_hits"`
	// HitRate is CacheHits/Requested.
	HitRate float64 `json:"hit_rate"`
	// Failed counts candidates whose evaluation failed and scored
	// failPenalty (fault containment: they rank last, the search continues).
	Failed int `json:"failed"`
	// Starts echoes the multi-start count; Converged counts the descents
	// that met the simplex tolerances within budget.
	Starts    int `json:"starts"`
	Converged int `json:"converged"`
}

// Progress is one streamed search update: the incumbent best design after a
// generation that improved it.
type Progress struct {
	// Generation is the lockstep round ordinal (1-based).
	Generation int `json:"generation"`
	// Evaluated, CacheHits, Failed are cumulative counts at emission time.
	Evaluated int `json:"evaluated"`
	CacheHits int `json:"cache_hits"`
	Failed    int `json:"failed"`
	// Best is the incumbent best design (monotonically improving under the
	// feasible-first, cheapest-first order).
	Best Design `json:"best"`
}

// ErrNoFeasible is returned by Run/Stream when the search finished but no
// evaluated candidate met every safety criterion; the best infeasible design
// is still returned alongside it.
var ErrNoFeasible = errors.New("designopt: no feasible design found in the search budget")

// ErrAllFailed is returned when every candidate evaluation failed — there is
// no design to report at all.
var ErrAllFailed = errors.New("designopt: every candidate evaluation failed")

// evalEntry is one cached candidate outcome.
type evalEntry struct {
	objective float64
	design    Design
	failed    bool
}

// evalReq is one objective call in flight: a start blocked on reply.
type evalReq struct {
	cand  candidate
	reply chan float64
}

// event is what a start goroutine sends the collector: an evaluation request,
// or (req == nil) its terminal Nelder–Mead result.
type event struct {
	req       *evalReq
	converged bool
}

// Run executes the search and returns the best design found, the work
// counters, and an error. The design is non-nil whenever at least one
// candidate scored — including under ErrNoFeasible, where it is the best
// infeasible layout (closest to safe).
func Run(ctx context.Context, spec Spec, opt Options) (*Design, Stats, error) {
	return Stream(ctx, spec, opt, nil)
}

// Stream is Run with incremental progress: emit is called (serialized, from
// one goroutine) after every generation that improves the incumbent best.
// An emit error aborts the search and is returned. A nil emit streams
// nothing.
//
// The search is bit-reproducible: fixed Spec+Options produce the same
// generations, the same designs and the same Stats at any Config.BEM.Workers
// setting. A Config.Solver of core.SolverHMatrix is refused before any
// work.
func Stream(ctx context.Context, spec Spec, opt Options, emit func(Progress) error) (*Design, Stats, error) {
	e, err := newEngine(spec, opt, emit)
	if err != nil {
		return nil, Stats{}, err
	}
	return e.search(ctx)
}

// newEngine validates the search and sets up its state.
func newEngine(spec Spec, opt Options, emit func(Progress) error) (*engine, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	if opt.Config.Solver == core.SolverHMatrix {
		return nil, errors.New("designopt: the compressed solver tier is not supported; choose a dense solver")
	}
	opt = opt.withDefaults()
	e := &engine{
		spec:  spec,
		opt:   opt,
		cache: map[string]*evalEntry{},
		emit:  emit,
	}
	e.cfg = opt.Config
	e.cfg.GPR = 1
	e.unit, _ = soil.Normalize(spec.Model)
	e.ladder = bem.NewLadder(e.unit, e.cfg.BEM)
	e.stats.Starts = opt.Starts
	return e, nil
}

// engine is one search's state; the collector goroutine owns all of it.
type engine struct {
	spec  Spec
	opt   Options
	cfg   core.Config
	cache map[string]*evalEntry
	stats Stats
	emit  func(Progress) error
	// unit is the spec's unit model (soil.Normalize) and ladder its image
	// ladder and far-field tables, shared by every candidate's assembler
	// across all rounds: candidates differ in layout and depth, not soil.
	unit   soil.Model
	ladder *bem.Ladder

	best    *Design
	bestKey string
}

// search runs the lockstep multi-start loop.
func (e *engine) search(ctx context.Context) (*Design, Stats, error) {
	lo, hi := e.spec.bounds()
	events := make(chan event, e.opt.Starts)
	nmOpt := optimize.Options{
		MaxIter: e.opt.MaxEvals / e.opt.Starts,
		TolF:    tolF,
		TolX:    tolX,
	}

	// Deterministic start points: the box center first (the "obvious"
	// mid-density design), then seeded uniform draws. The rng is consumed in
	// a fixed order, so the start set is a pure function of (Seed, Starts).
	rng := rand.New(rand.NewSource(e.opt.Seed))
	starts := make([][]float64, e.opt.Starts)
	for s := range starts {
		x := make([]float64, len(lo))
		for j := range x {
			if s == 0 {
				x[j] = lo[j] + 0.5*(hi[j]-lo[j])
			} else {
				x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
		}
		starts[s] = x
	}

	for s := 0; s < e.opt.Starts; s++ {
		go func(x0 []float64) {
			obj := func(x []float64) float64 {
				req := &evalReq{cand: e.spec.quantize(x), reply: make(chan float64, 1)}
				events <- event{req: req}
				return <-req.reply
			}
			wrapped, _, toU := optimize.Bounded(obj, lo, hi)
			res, err := optimize.NelderMead(wrapped, toU(x0), nmOpt)
			events <- event{converged: err == nil && res.Converged}
		}(starts[s])
	}

	// The lockstep collector. Every alive start is, between rounds, either
	// blocked on a reply or about to send its terminal event — so collecting
	// exactly `alive` events per round drains one objective call (or exit)
	// from each, and the round's batch composition depends only on the reply
	// values so far, never on goroutine scheduling.
	alive := e.opt.Starts
	cancelled := false
	var searchErr error
	for alive > 0 {
		pending := make([]*evalReq, 0, alive)
		for n := alive; n > 0; n-- {
			ev := <-events
			if ev.req != nil {
				pending = append(pending, ev.req)
				continue
			}
			alive--
			if ev.converged {
				e.stats.Converged++
			}
		}
		if len(pending) == 0 {
			continue
		}
		e.stats.Generations++
		e.stats.Requested += len(pending)

		if !cancelled && ctx.Err() != nil {
			cancelled = true
			if searchErr == nil {
				searchErr = ctx.Err()
			}
		}
		if !cancelled && searchErr == nil {
			if err := e.evaluateRound(ctx, pending); err != nil {
				if ctx.Err() != nil {
					cancelled = true
					if searchErr == nil {
						searchErr = err
					}
				} else {
					searchErr = err
					cancelled = true
				}
			}
		}

		// Reply every pending call from the cache; after cancellation or a
		// hard error the un-evaluated remainder scores failPenalty so the
		// descents terminate quickly without further solves.
		for _, req := range pending {
			if ent, ok := e.cache[req.cand.key()]; ok {
				req.reply <- ent.objective
			} else {
				req.reply <- failPenalty
			}
		}
	}

	e.stats.CacheHits = e.stats.Requested - e.stats.Evaluated
	if e.stats.Requested > 0 {
		e.stats.HitRate = float64(e.stats.CacheHits) / float64(e.stats.Requested)
	}
	if searchErr != nil {
		return e.best, e.stats, searchErr
	}
	if e.best == nil {
		if e.stats.Evaluated > 0 {
			return nil, e.stats, ErrAllFailed
		}
		return nil, e.stats, fmt.Errorf("designopt: no candidates evaluated")
	}
	if !e.best.Feasible {
		return e.best, e.stats, ErrNoFeasible
	}
	return e.best, e.stats, nil
}

// evaluateRound analyzes the round's unique uncached candidates one at a
// time, scores them, updates the incumbent and streams progress on
// improvement.
func (e *engine) evaluateRound(ctx context.Context, pending []*evalReq) error {
	// Unique uncached candidate keys, sorted: the evaluation order (and with
	// it the evaluation ordinals, the stats and the emitted stream) is a
	// pure function of the requested set.
	fresh := map[string]candidate{}
	for _, req := range pending {
		k := req.cand.key()
		if _, done := e.cache[k]; !done {
			fresh[k] = req.cand
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	keys := make([]string, 0, len(fresh))
	for k := range fresh {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Analyze the whole round before scoring any of it, so a discretization
	// error or a cancellation leaves no candidate of the round cached.
	grids := make([]*Design, len(keys))
	results := make([]*core.Result, len(keys))
	for i, k := range keys {
		c := fresh[k]
		g := e.spec.buildGrid(c)
		grids[i] = &Design{NX: c.nx, NY: c.ny, Rods: c.rods, Depth: c.depth, Grid: g}
		res, err := e.analyze(ctx, g)
		if err != nil {
			return err
		}
		results[i] = res
	}

	improvedAny := false
	for i, k := range keys {
		ent, err := e.score(ctx, fresh[k], grids[i], results[i])
		if err != nil {
			return err
		}
		e.cache[k] = ent
		e.stats.Evaluated++
		if ent.failed {
			e.stats.Failed++
			continue
		}
		if e.best == nil || better(ent.design, k, *e.best, e.bestKey) {
			d := ent.design
			e.best, e.bestKey = &d, k
			improvedAny = true
		}
	}
	if improvedAny && e.emit != nil {
		return e.emit(Progress{
			Generation: e.stats.Generations,
			Evaluated:  e.stats.Evaluated,
			CacheHits:  e.stats.Requested - e.stats.Evaluated,
			Failed:     e.stats.Failed,
			Best:       *e.best,
		})
	}
	return nil
}

// analyze runs candidate grid g through core's stages at unit GPR, its
// assembler on the search's ladder. A failure after discretization, a panic
// on this goroutine included, returns a nil Result: it fails this candidate
// alone. A discretization error, or ctx's once it is cancelled, aborts the
// search.
func (e *engine) analyze(ctx context.Context, g *grid.Grid) (res *core.Result, err error) {
	mesh, warnings, err := core.BuildMesh(g, e.spec.Model, e.cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if v := recover(); v != nil || err != nil {
			res, err = nil, ctx.Err()
		}
	}()
	asm, err := bem.NewShared(mesh, e.unit, e.cfg.BEM, e.ladder)
	if err != nil {
		return nil, err
	}
	return core.AnalyzeAssembler(ctx, asm, e.spec.Model, warnings, e.cfg)
}

// score turns one candidate's analysis into a cached entry, with
// per-candidate fault containment: a failed analysis (nil res), a failed
// raster, a poisoned value or a panic out of the injection point marks this
// candidate failed (objective failPenalty) and the search continues. Only
// ctx cancellation propagates as an error.
func (e *engine) score(ctx context.Context, c candidate, d *Design, res *core.Result) (ent *evalEntry, err error) {
	failed := func() *evalEntry {
		d.Objective = failPenalty
		return &evalEntry{objective: failPenalty, design: *d, failed: true}
	}
	if res == nil {
		return failed(), nil
	}
	defer func() {
		if v := recover(); v != nil {
			ent, err = failed(), nil
		}
	}()

	d.Cost = e.spec.cost(c, d.Grid)
	d.Req = res.Req
	d.GPR = res.Req * e.spec.FaultCurrent
	v, err := post.ComputeVoltagesCtx(ctx, res.Assembler(), res.Mesh, res.Sigma, d.GPR, e.spec.VoltageRes,
		post.SurfaceOptions{Workers: e.cfg.BEM.Workers, Schedule: e.cfg.BEM.Schedule})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		// A contained raster panic (injected or real) fails this candidate.
		return failed(), nil
	}
	d.Voltages = v

	vals := []float64{d.Cost, v.MaxStep, v.MaxTouch, v.MaxMesh}
	if faultinject.Active() {
		faultinject.Fire(faultinject.OptimizeCandidate, e.stats.Evaluated, vals)
	}
	for _, x := range vals {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return failed(), nil
		}
	}

	verdict, err := e.spec.Safety.Check(vals[1], vals[2], vals[3])
	if err != nil {
		return nil, err // spec validated upfront; this is a programming error
	}
	d.Verdict = verdict
	d.Feasible = verdict.Safe()

	excess := func(actual, limit float64) float64 {
		if x := actual/limit - 1; x > 0 {
			return x
		}
		return 0
	}
	p := excess(verdict.StepActual, verdict.StepLimit) +
		excess(verdict.TouchActual, verdict.TouchLimit) +
		excess(verdict.MeshActual, verdict.TouchLimit)
	d.Objective = d.Cost * (1 + e.opt.PenaltyWeight*(p+p*p))
	return &evalEntry{objective: d.Objective, design: *d}, nil
}
