package bem

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"earthing/internal/faultinject"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// Assembler holds the precomputed state of a (mesh, soil model)
// discretization and generates the Galerkin system. Create one with New,
// then call MatrixCtx (and RHS) — or reuse it for repeated assemblies in
// benchmarks. The embedded Geometry (quadrature positions, weights, shape
// values) is soil-independent and may be shared across assemblers via
// NewWithGeometry. The Ladder (image ladder and far-field tables) is
// mesh-independent: New and NewWithGeometry build a private one, and
// NewShared takes one shared with other assemblers of the soil model, as a
// design search shares one across its candidates.
type Assembler struct {
	*Geometry
	model soil.Model
	opt   Options

	elemLayer []int // soil layer of each element

	// lastBusy and lastPairs record per-worker busy time and pair-class
	// counts of the most recent MatrixCtx call, for load-balance analysis
	// (see WorkerBusy and WorkerPairs); lastClasses is its class count and
	// lastFar the classes of it the far-field branch evaluated.
	lastBusy    []time.Duration
	lastPairs   []int64
	lastClasses int
	lastFar     int

	// lad is the model's Ladder, private (New, NewWithGeometry) or shared
	// with other assemblers of the model (NewShared); ladder is its image
	// expansions of every (src, obs) layer pair, flattened once and grouped
	// by series index (see imageLadder). Pairs without a closed image form
	// fall back to quadrature of Model.PointPotential, so a model may mix
	// fast image kernels (e.g. the top layer of an N-layer soil) with slow
	// exact ones.
	lad    *Ladder
	ladder *imageLadder

	// far is this assembler's view of the far-field tables (see
	// farfield.go): its registered depths and a slot per depth pair caching
	// the ladder's table, built lazily and shared read-only by every worker.
	far farTables

	// evalOnce/eval lazily build the batched field evaluator shared by all
	// post-processing consumers (see fieldeval.go); eval is atomic so that
	// Footprint can observe it without building it.
	evalOnce sync.Once
	eval     atomic.Pointer[FieldEvaluator]
}

// New prepares an assembler. It validates that no element spans a layer
// interface (the kernels assume each source element lies wholly inside one
// layer; use Grid.SplitAtDepths before discretizing).
func New(m *grid.Mesh, model soil.Model, opt Options) (*Assembler, error) {
	geo, err := NewGeometry(m, opt)
	if err != nil {
		return nil, err
	}
	return NewWithGeometry(geo, model, opt)
}

// NewWithGeometry prepares an assembler on an existing shared Geometry: only
// the soil-dependent state (element layers, a private Ladder) is rebuilt, so
// N assemblers over the same mesh pay the quadrature-geometry setup once.
// The options must select the same integration orders the geometry was built
// with.
func NewWithGeometry(geo *Geometry, model soil.Model, opt Options) (*Assembler, error) {
	return newAssembler(geo, model, opt, nil)
}

// NewShared is NewWithGeometry on a Ladder shared with other assemblers of
// the same model: the image ladder is not rebuilt, and the far-field tables
// and panels any of them builds serve all. Results are bitwise those of a
// private ladder. lad must have been built for model's soil.Canonical
// rendering and opt's series cap (NewLadder).
func NewShared(geo *Geometry, model soil.Model, opt Options, lad *Ladder) (*Assembler, error) {
	if lad == nil {
		return nil, fmt.Errorf("bem: nil ladder")
	}
	if !lad.fits(model, opt) {
		return nil, fmt.Errorf("bem: the ladder was built for another soil model or series cap")
	}
	return newAssembler(geo, model, opt, lad)
}

// newAssembler builds an assembler on lad, or on a private ladder when lad
// is nil.
func newAssembler(geo *Geometry, model soil.Model, opt Options, lad *Ladder) (*Assembler, error) {
	if geo == nil {
		return nil, fmt.Errorf("bem: nil geometry")
	}
	opt = opt.withDefaults()
	if opt.Kernel != FlatKernel {
		return nil, fmt.Errorf("%w: %v", ErrUnknownKernel, opt.Kernel)
	}
	if opt.GaussOrder != geo.gaussOrder || opt.NearGaussOrder != geo.nearGaussOrder {
		return nil, fmt.Errorf("bem: options select Gauss orders (%d, %d) but the geometry was built for (%d, %d)",
			opt.GaussOrder, opt.NearGaussOrder, geo.gaussOrder, geo.nearGaussOrder)
	}
	m := geo.mesh
	a := &Assembler{
		Geometry: geo,
		model:    model,
		opt:      opt,
	}

	a.elemLayer = make([]int, len(m.Elements))
	for e, el := range m.Elements {
		layer := model.LayerOf(el.Seg.Midpoint().Z)
		for _, t := range []float64{0.125, 0.375, 0.625, 0.875} {
			if l := model.LayerOf(el.Seg.Point(t).Z); l != layer {
				return nil, fmt.Errorf(
					"bem: element %d (%v) spans soil layers %d and %d; split conductors at the interfaces first",
					e, el.Seg, layer, l)
			}
		}
		a.elemLayer[e] = layer
	}

	if lad == nil {
		lad = newLadder(model, opt)
	}
	a.lad, a.ladder = lad, lad.img
	a.initFar()
	return a, nil
}

// Footprint estimates the resident bytes an assembler pins beyond its mesh:
// the quadrature geometry, its Ladder (the image ladder and the far-field
// tables and panels built in it so far), its table slots, and every
// field-evaluation plan built so far (the flat kernel builds one per
// source-element layer; a raster may add the others). It is the sizing
// input of groundd's byte-bounded cache of solved systems.
//
// A Ladder shared by several assemblers (NewShared) is counted whole in
// each of them, tables and panels the others built included: each holds it
// alive, so that is what evicting any one of them alone cannot free, and
// the sum over assemblers overstates their joint footprint — the
// conservative side for a byte-bounded cache.
func (a *Assembler) Footprint() int64 {
	n := a.Geometry.Footprint() + int64(len(a.elemLayer))*8 + a.lad.footprint() + a.far.footprint()
	if fe := a.eval.Load(); fe != nil {
		n += fe.footprint()
	}
	return n
}

// WorkerBusy returns the per-worker busy durations of the most recent
// MatrixCtx call. On a host with one free core per worker, Σbusy/max(busy)
// approximates the achievable wall-clock speed-up; on oversubscribed hosts
// the intervals include descheduled time, so prefer WorkerPairs there.
func (a *Assembler) WorkerBusy() []time.Duration { return a.lastBusy }

// WorkerPairs returns the number of pair classes each worker evaluated in
// the most recent MatrixCtx call (one flat-kernel elemental matrix per class;
// see PairClass; on a shared ladder the classes served from its memo count
// too). Σ/max is the speed-up a schedule achieves on a machine
// with one core per worker when every class costs the same — the
// load-balance quantity behind Table 6.2 (see EXPERIMENTS.md). In layered
// soil classes do not cost the same: a far class (NumFarClasses) reads the
// tabulated ladder and costs a small fraction of a class that walks it, so
// there the count is a host-independent proxy, not a prediction; prefer
// WorkerBusy on a host with a free core per worker.
func (a *Assembler) WorkerPairs() []int64 { return a.lastPairs }

// PredictedSpeedup returns Σpairs/max(pairs) of the most recent MatrixCtx
// call: the speed-up if every class cost the same (see WorkerPairs).
func (a *Assembler) PredictedSpeedup() float64 {
	var total, max int64
	for _, n := range a.lastPairs {
		total += n
		if n > max {
			max = n
		}
	}
	if max == 0 {
		return 1
	}
	return float64(total) / float64(max)
}

// NumClasses returns the number of pair classes the most recent MatrixCtx call
// evaluated — the elemental matrices computed or, on a shared ladder, served
// from its memo, against the NumPairs it served.
func (a *Assembler) NumClasses() int { return a.lastClasses }

// NumFarClasses returns how many of the most recent MatrixCtx call's classes
// the far-field branch evaluated from the tabulated ladder (see
// farfield.go); the others walked the ladder.
func (a *Assembler) NumFarClasses() int { return a.lastFar }

// NumPairs returns the number of element pairs M(M+1)/2 of the triangle.
func (a *Assembler) NumPairs() int {
	m := len(a.mesh.Elements)
	return m * (m + 1) / 2
}

// MatrixCtx generates the Galerkin system matrix (eq. 4.4–4.5) using the
// configured loop strategy, schedule and assembly mode; the returned
// statistics describe how the parallel loop distributed its work. It
// classifies every element pair (PairClass), evaluates each pair class once
// in the parallel loop and scatters the class matrices onto their member
// pairs. On a shared ladder it first resolves the classes against the
// ladder's class memo (memo.go): the loop evaluates only the misses, and
// publishes them once it has succeeded. ctx is observed once per triangle
// row while classifying and at every schedule chunk boundary of the class
// loop (see sched.ForStatsCtx), so an abandoned request stops burning cores
// after at most one row or column. On cancellation the matrix is discarded
// and ctx.Err() is returned.
func (a *Assembler) MatrixCtx(ctx context.Context) (*linalg.SymMatrix, sched.Stats, error) {
	cl, err := a.classify(ctx)
	if err != nil {
		return nil, sched.Stats{}, err
	}
	a.lastClasses = len(cl.keys)

	kk := a.k * a.k
	memo := a.classMemo()
	var hits [][]float64 // per class: its memoized matrix, or nil
	if memo != nil {
		hits = memo.resolveClasses(a.memoVariant(), cl.keys, kk)
	}
	served := func(c int) bool { return hits != nil && hits[c] != nil }

	var r *linalg.SymMatrix
	var stats sched.Stats
	// ps holds the classes the loop evaluates, for the assembly or the memo.
	var ps *pairStore
	switch a.opt.Assembly {
	case StoreThenAssemble:
		// The paper's transformation: compute all elemental matrices into
		// flat storage inside the parallel loop, assemble sequentially after.
		ps = a.newPairStore(cl)
		for c, h := range hits {
			if h != nil {
				copy(ps.class(c), h)
			}
		}
		stats, err = a.runPairLoop(ctx, cl, func(c, beta int, scratch *pairScratch) {
			if !served(c) {
				a.evalClass(cl, c, beta, ps.class(c), scratch)
			}
		})
		if err != nil {
			return nil, stats, err
		}
		r = ps.assemble()

	case MutexAssemble:
		// Each class is scattered onto its members under a lock as soon as
		// it is computed; members are listed per class up front.
		members, off := cl.members()
		if memo != nil {
			ps = a.newPairStore(cl)
		}
		r = linalg.NewSymMatrix(a.mesh.NumDoF)
		var mu sync.Mutex
		stats, err = a.runPairLoop(ctx, cl, func(c, beta int, scratch *pairScratch) {
			m := scratch.elemental
			if ps != nil {
				m = ps.class(c)
			}
			if served(c) {
				m = hits[c]
			} else {
				a.evalClass(cl, c, beta, m, scratch)
			}
			var member [4]float64
			mu.Lock()
			for _, p := range members[off[c]:off[c+1]] {
				p.flip.Apply(a.k, m, member[:])
				a.assemblePair(r, int(p.beta), int(p.alpha), member[:])
			}
			mu.Unlock()
		})
		if err != nil {
			return nil, stats, err
		}

	default:
		return nil, sched.Stats{}, fmt.Errorf("bem: unknown assembly mode %v", a.opt.Assembly)
	}
	if memo != nil {
		memo.publishClasses(a.memoVariant(), cl.keys, hits, kk, ps.class)
	}
	return r, stats, nil
}

// pairStore is the elemental-matrix store of a StoreThenAssemble
// generation: the pair → class table and one k×k slot per pair class. Each
// class is computed by the column that owns it (see pairClasses); distinct
// columns touch disjoint slots, so concurrent workers fill different
// columns without synchronization.
type pairStore struct {
	a       *Assembler
	classes *pairClasses
	data    []float64
}

func (a *Assembler) newPairStore(cl *pairClasses) *pairStore {
	return &pairStore{a: a, classes: cl, data: make([]float64, len(cl.keys)*a.k*a.k)}
}

// class returns class c's slot.
func (ps *pairStore) class(c int) []float64 {
	kk := ps.a.k * ps.a.k
	return ps.data[c*kk : (c+1)*kk]
}

// assemble scatters a fully computed store into a fresh global matrix:
// every pair, in triangle order, receives its class matrix under its flip.
func (ps *pairStore) assemble() *linalg.SymMatrix {
	a := ps.a
	m := len(a.mesh.Elements)
	r := linalg.NewSymMatrix(a.mesh.NumDoF)
	var member [4]float64
	for beta := 0; beta < m; beta++ {
		row := beta * (beta + 1) / 2
		for alpha := 0; alpha <= beta; alpha++ {
			c := ps.classes.of[row+alpha]
			PairFlip(c&3).Apply(a.k, ps.class(int(c>>2)), member[:])
			a.assemblePair(r, beta, alpha, member[:])
		}
	}
	return r
}

// pairScratch holds per-worker scratch buffers so the hot loop does not
// allocate.
type pairScratch struct {
	elemental []float64 // k×k
	group     []float64 // k×k per-series-group accumulator
	inner     []float64 // k inner shape integrals

	// Flat-kernel per-Gauss-point hoists (maxGauss-sized): the observation
	// geometry and the weight×shape products each image of a pair shares.
	hxy  []float64 // axial projection of the horizontal offset
	dxy2 []float64 // squared horizontal distance
	chiZ []float64 // observation depth
	wsh0 []float64 // gpW·lenB·shape₀ (gpW·lenB for constant elements)
	wsh1 []float64 // gpW·lenB·shape₁ (unused for constant elements)

	// Far-branch inner points along the source axis (farInnerMax-sized).
	innerX, innerY []float64
	// far counts the classes this scratch evaluated by the far branch;
	// farLast is the table of the last one (most share one depth pair).
	far     int
	farLast *farTable
}

// maxGauss returns the larger of the far- and near-field outer rule sizes —
// the capacity the flat-kernel hoist arrays need.
func (g *Geometry) maxGauss() int {
	n := len(g.gpW)
	if len(g.gpWN) > n {
		n = len(g.gpWN)
	}
	return n
}

func (a *Assembler) newScratch() *pairScratch {
	kk := a.k * a.k
	ng := a.maxGauss()
	return &pairScratch{
		elemental: make([]float64, kk),
		group:     make([]float64, kk),
		inner:     make([]float64, a.k),
		hxy:       make([]float64, ng),
		dxy2:      make([]float64, ng),
		chiZ:      make([]float64, ng),
		wsh0:      make([]float64, ng),
		wsh1:      make([]float64, ng),
		innerX:    make([]float64, farInnerMax),
		innerY:    make([]float64, farInnerMax),
	}
}

// runPairLoop executes body over every pair class under the configured loop
// strategy and schedule, giving each worker its own scratch. The loop runs
// over the columns of the element-pair triangle, each evaluating the classes
// it owns (see pairClasses); body receives the class and its column.
// ctx is observed at chunk boundaries (and between columns for InnerLoop).
func (a *Assembler) runPairLoop(ctx context.Context, cl *pairClasses, body func(c, beta int, scratch *pairScratch)) (sched.Stats, error) {
	m := len(a.mesh.Elements)
	p := a.opt.Workers
	// Both strategies run at most sched.Width(m, p) workers: a column owns
	// at most m classes. busy keeps one spare trailing slot because the
	// benchmark's replay (bench/replay.go) divides by len(WorkerBusy())−1.
	width := sched.Width(m, p)
	scratches := make([]*pairScratch, width)
	getScratch := func(w int) *pairScratch {
		if scratches[w] == nil {
			scratches[w] = a.newScratch()
		}
		return scratches[w]
	}

	busy := make([]time.Duration, width+1)
	pairs := make([]int64, width)
	defer func() {
		a.lastBusy = busy
		a.lastPairs = pairs
		a.lastFar = 0
		for _, s := range scratches {
			if s != nil {
				a.lastFar += s.far
			}
		}
	}()

	switch a.opt.Loop {
	case OuterLoop:
		// One cycle per column β of the element-pair triangle, columns
		// iterated largest first (i = 0 → β = M−1) — the granularity
		// situation of §6.2; each cycle evaluates the classes its column
		// owns, which is a few per column (see pairClasses).
		return sched.ForStatsCtx(ctx, m, p, a.opt.Schedule, func(i, w int) {
			beta := m - 1 - i
			lo, hi := cl.columnClasses(beta)
			s := getScratch(w)
			start := time.Now()
			for c := lo; c < hi; c++ {
				body(c, beta, s)
			}
			busy[w] += time.Since(start)
			pairs[w] += int64(hi - lo)
		})
	case InnerLoop:
		// The classes of each column are distributed among workers; the
		// program moves to the next column only when the previous one is
		// finished — one synchronization barrier per column.
		var agg sched.Stats
		for beta := m - 1; beta >= 0; beta-- {
			lo, hi := cl.columnClasses(beta)
			st, err := sched.ForStatsCtx(ctx, hi-lo, p, a.opt.Schedule, func(i, w int) {
				start := time.Now()
				body(lo+i, beta, getScratch(w))
				busy[w] += time.Since(start)
				pairs[w]++
			})
			agg.Iterations += st.Iterations
			if st.Workers > agg.Workers {
				agg.Workers = st.Workers
				agg.PerWorker = make([]int, st.Workers)
				agg.ChunksPerWorker = make([]int, st.Workers)
			}
			for i := 0; i < st.Workers && i < agg.Workers; i++ {
				agg.PerWorker[i] += st.PerWorker[i]
				agg.ChunksPerWorker[i] += st.ChunksPerWorker[i]
			}
			if err != nil {
				return agg, err
			}
		}
		return agg, nil
	default:
		// A typed error, not a panic: the loop strategy arrives via Options
		// from serving paths that must degrade per-request.
		return sched.Stats{}, fmt.Errorf("bem: unknown loop strategy %v", a.opt.Loop)
	}
}

// pairMatrixExact computes the elemental matrix of a pair that has no
// canonical class evaluation — a layer pair without an image expansion —
// into out (row-major k×k, out[j·k+i] = ∫_β w_j ∫_α N_i G dΓ_α dΓ_β) by
// quadrature of the exact point kernel.
func (a *Assembler) pairMatrixExact(beta, alpha int, out []float64, s *pairScratch) {
	for i := range out {
		out[i] = 0
	}
	faultinject.Fire(faultinject.Quadrature, beta, out)
	a.pairMatrixQuadrature(beta, alpha, out, s)
}

// pairMatrixQuadrature is the fallback for models without an image
// expansion (N ≥ 3 layers): the primary 1/r part is still integrated
// analytically; the smooth secondary part is integrated by Gauss quadrature
// of Model.PointPotential minus the primary term.
func (a *Assembler) pairMatrixQuadrature(beta, alpha int, out []float64, s *pairScratch) {
	k := a.k
	elA := &a.mesh.Elements[alpha]
	elB := &a.mesh.Elements[beta]
	srcLayer := a.elemLayer[alpha]
	pref := 1 / (4 * math.Pi * a.model.Conductivity(srcLayer))
	lenA := elA.Seg.Length()
	lenB := elB.Seg.Length()

	for g, chiAxis := range a.gpPos[beta] {
		// Field points live on the conductor surface: offset horizontally
		// so the secondary kernel sees the correct depth.
		chi := surfacePoint(chiAxis, elB)
		// Analytic primary.
		shapeIntegrals(chi, elA.Seg.A, elA.Seg.B, elA.Radius, a.linear, s.inner)
		wg := a.gpW[g] * lenB
		for j := 0; j < k; j++ {
			wj := wg * a.gpShape[g][j] * pref
			for i := 0; i < k; i++ {
				out[j*k+i] += wj * s.inner[i]
			}
		}
		// Quadrature of the secondary (total − primary) kernel.
		for h, th := range a.gpT {
			xi := elA.Seg.Point(th)
			rTrue := chi.Dist(xi)
			if rTrue < elA.Radius {
				rTrue = elA.Radius
			}
			sec := a.model.PointPotential(chi, xi) - pref/rTrue
			wh := a.gpW[h] * lenA * wg
			for j := 0; j < k; j++ {
				wj := wh * a.gpShape[g][j] * sec
				for i := 0; i < k; i++ {
					var ni float64
					if a.linear {
						ni = a.gpShape[h][i]
					} else {
						ni = 1
					}
					out[j*k+i] += wj * ni
				}
			}
		}
	}
}

// surfacePoint offsets an axis point of element el to the conductor surface
// along a horizontal direction perpendicular to the element axis (keeping
// the depth, and therefore the soil layer, unchanged).
func surfacePoint(p geom.Vec3, el *grid.Element) geom.Vec3 {
	dir := el.Seg.Dir()
	perp := dir.Cross(geom.V(0, 0, 1))
	if perp.Norm() < 1e-12 { // vertical element: any horizontal direction
		perp = geom.V(1, 0, 0)
	} else {
		perp = perp.Unit()
	}
	return p.Add(perp.Scale(el.Radius))
}

// assemblePair scatters one elemental matrix into the global symmetric
// matrix. For β ≠ α the mirrored ordered pair (α, β) is accounted for by
// symmetry: off-diagonal global entries receive the value once (packed
// storage represents both (J, I) and (I, J)), while global diagonal hits
// J = I receive it twice (once from each ordered pair). Self pairs (β = α)
// symmetrize the elemental off-diagonal to compensate quadrature asymmetry.
func (a *Assembler) assemblePair(r *linalg.SymMatrix, beta, alpha int, c []float64) {
	k := a.k
	db := a.mesh.Elements[beta].DoF
	da := a.mesh.Elements[alpha].DoF
	if beta == alpha {
		for j := 0; j < k; j++ {
			r.Add(db[j], db[j], c[j*k+j])
			for i := 0; i < j; i++ {
				r.Add(db[j], da[i], 0.5*(c[j*k+i]+c[i*k+j]))
			}
		}
		return
	}
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			v := c[j*k+i]
			if db[j] == da[i] {
				r.Add(db[j], da[i], 2*v)
			} else {
				r.Add(db[j], da[i], v)
			}
		}
	}
}

// RHS builds the load vector ν of eq. (4.6) for the unit GPR boundary
// condition V = 1 on Γ: ν_j = ∫ w_j dΓ, which is exactly L/2 per linear
// shape function and L per constant element.
func RHS(m *grid.Mesh) []float64 {
	nu := make([]float64, m.NumDoF)
	for _, el := range m.Elements {
		l := el.Seg.Length()
		if m.Kind == grid.Linear {
			nu[el.DoF[0]] += l / 2
			nu[el.DoF[1]] += l / 2
		} else {
			nu[el.DoF[0]] += l
		}
	}
	return nu
}

// TotalCurrent integrates the solved leakage density over the electrode:
// IΓ = Σ_i σ_i ∫ N_i dΓ (eq. 2.2). sigma is the DoF vector in A/m for a
// unit GPR.
func TotalCurrent(m *grid.Mesh, sigma []float64) float64 {
	var total float64
	for _, el := range m.Elements {
		l := el.Seg.Length()
		if m.Kind == grid.Linear {
			total += l / 2 * (sigma[el.DoF[0]] + sigma[el.DoF[1]])
		} else {
			total += l * sigma[el.DoF[0]]
		}
	}
	return total
}
