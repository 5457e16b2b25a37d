package bem

import (
	"context"
	"fmt"
	"math"
	"runtime"
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
// then call Matrix (and RHS) — or reuse it for repeated assemblies in
// benchmarks. The embedded Geometry (quadrature positions, weights, shape
// values) is soil-independent and may be shared across assemblers via
// NewWithGeometry.
type Assembler struct {
	*Geometry
	model soil.Model
	opt   Options

	elemLayer []int // soil layer of each element

	// lastBusy and lastPairs record per-worker busy time and pair-class
	// counts of the most recent Matrix() call, for load-balance analysis
	// (see WorkerBusy and WorkerPairs); lastClasses is its class count.
	lastBusy    []time.Duration
	lastPairs   []int64
	lastClasses int

	// Image expansions of every (src, obs) layer pair, flattened once and
	// grouped by series index (see imageLadder). Pairs without a closed
	// image form fall back to quadrature of Model.PointPotential, so a model
	// may mix fast image kernels (e.g. the top layer of an N-layer soil)
	// with slow exact ones.
	ladder *imageLadder

	// innerScratch pools k-sized inner-integral buffers so the legacy
	// per-point Potential path does not allocate per call.
	innerScratch sync.Pool

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
// the soil-dependent state (element layers, image expansions) is rebuilt, so
// N assemblers over the same mesh pay the quadrature-geometry setup once.
// The options must select the same integration orders the geometry was built
// with.
func NewWithGeometry(geo *Geometry, model soil.Model, opt Options) (*Assembler, error) {
	if geo == nil {
		return nil, fmt.Errorf("bem: nil geometry")
	}
	opt = opt.withDefaults()
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

	a.ladder = newImageLadder(model, opt.MaxGroups)
	return a, nil
}

// Footprint estimates the resident bytes an assembler pins beyond its mesh:
// the quadrature geometry, the shared image ladder and every field-evaluation
// plan built so far (the flat kernel builds one per source-element layer; a
// raster may add the others). It is the sizing input of groundd's
// byte-bounded cache of solved systems.
func (a *Assembler) Footprint() int64 {
	n := a.Geometry.Footprint() + int64(len(a.elemLayer))*8 + a.ladder.footprint()
	if fe := a.eval.Load(); fe != nil {
		n += fe.footprint()
	}
	return n
}

// WorkerBusy returns the per-worker busy durations of the most recent
// Matrix call. On a host with one free core per worker, Σbusy/max(busy)
// approximates the achievable wall-clock speed-up; on oversubscribed hosts
// the intervals include descheduled time, so prefer WorkerPairs there.
func (a *Assembler) WorkerBusy() []time.Duration { return a.lastBusy }

// WorkerPairs returns the number of pair classes each worker evaluated in
// the most recent Matrix call (one flat-kernel elemental matrix per class;
// see PairClass). Because every class costs a near-identical kernel-series
// evaluation, Σ/max is a host-independent prediction of the wall-clock
// speed-up a schedule achieves on a machine with one core per worker — the
// load-balance quantity behind Table 6.2 (see EXPERIMENTS.md).
func (a *Assembler) WorkerPairs() []int64 { return a.lastPairs }

// PredictedSpeedup returns Σpairs/max(pairs) of the most recent Matrix call.
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

// NumClasses returns the number of pair classes the most recent Matrix call
// evaluated — the elemental matrices computed, against the NumPairs it
// served.
func (a *Assembler) NumClasses() int { return a.lastClasses }

// NumPairs returns the number of element pairs M(M+1)/2 of the triangle.
func (a *Assembler) NumPairs() int {
	m := len(a.mesh.Elements)
	return m * (m + 1) / 2
}

// Matrix generates the Galerkin system matrix (eq. 4.4–4.5) using the
// configured loop strategy, schedule and assembly mode. The returned
// statistics describe how the parallel loop distributed its work.
func (a *Assembler) Matrix() (*linalg.SymMatrix, sched.Stats, error) {
	//lint:ignore ctxflow synchronous compatibility wrapper; the ctx-first variant is the primary API
	return a.MatrixCtx(context.Background())
}

// MatrixCtx is Matrix with cooperative cancellation. It classifies every
// element pair (PairClass), evaluates each pair class once in the parallel
// loop and scatters the class matrices onto their member pairs. ctx is
// observed once per triangle row while classifying and at every schedule
// chunk boundary of the class loop (see sched.ForStatsCtx), so an abandoned
// request stops burning cores after at most one row or column. On
// cancellation the matrix is discarded and ctx.Err() is returned.
func (a *Assembler) MatrixCtx(ctx context.Context) (*linalg.SymMatrix, sched.Stats, error) {
	cl, err := a.classify(ctx)
	if err != nil {
		return nil, sched.Stats{}, err
	}
	a.lastClasses = len(cl.keys)

	switch a.opt.Assembly {
	case StoreThenAssemble:
		// The paper's transformation: compute all elemental matrices into
		// flat storage inside the parallel loop, assemble sequentially after.
		ps := a.newPairStore(cl)
		stats, err := a.runPairLoop(ctx, cl, func(c, beta int, scratch *pairScratch) {
			a.evalClass(cl, c, beta, ps.class(c), scratch)
		})
		if err != nil {
			return nil, stats, err
		}
		return ps.Assemble(), stats, nil

	case MutexAssemble:
		// Each class is scattered onto its members under a lock as soon as
		// it is computed; members are listed per class up front.
		members, off := cl.members()
		r := linalg.NewSymMatrix(a.mesh.NumDoF)
		var mu sync.Mutex
		stats, err := a.runPairLoop(ctx, cl, func(c, beta int, scratch *pairScratch) {
			a.evalClass(cl, c, beta, scratch.elemental, scratch)
			var member [4]float64
			mu.Lock()
			for _, p := range members[off[c]:off[c+1]] {
				p.flip.Apply(a.k, scratch.elemental, member[:])
				a.assemblePair(r, int(p.beta), int(p.alpha), member[:])
			}
			mu.Unlock()
		})
		if err != nil {
			return nil, stats, err
		}
		return r, stats, nil

	default:
		return nil, sched.Stats{}, fmt.Errorf("bem: unknown assembly mode %v", a.opt.Assembly)
	}
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
	if p <= 0 {
		p = 0 // sched resolves to GOMAXPROCS
	}
	maxW := p
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	scratches := make([]*pairScratch, maxW+1)
	getScratch := func(w int) *pairScratch {
		if w >= len(scratches) {
			w = len(scratches) - 1
		}
		if scratches[w] == nil {
			scratches[w] = a.newScratch()
		}
		return scratches[w]
	}

	busy := make([]time.Duration, maxW+1)
	pairs := make([]int64, maxW+1)
	defer func() {
		a.lastBusy = busy
		a.lastPairs = pairs
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
			wi := w
			if wi >= len(busy) {
				wi = len(busy) - 1
			}
			busy[wi] += time.Since(start)
			pairs[wi] += int64(hi - lo)
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
				wi := w
				if wi >= len(busy) {
					wi = len(busy) - 1
				}
				busy[wi] += time.Since(start)
				pairs[wi]++
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
// canonical class evaluation into out (row-major k×k, out[j·k+i] =
// ∫_β w_j ∫_α N_i G dΓ_α dΓ_β): the double integral of eq. (4.5) with the
// kernel series truncated group by group "until a tolerance is fulfilled or
// an upper limit of summands is achieved" (§4.3) — through the reference
// image kernel, or by quadrature when the layer pair has no image expansion.
func (a *Assembler) pairMatrixExact(beta, alpha int, out []float64, s *pairScratch) {
	for i := range out {
		out[i] = 0
	}
	if _, _, ok := a.ladder.pair(a.elemLayer[alpha], a.elemLayer[beta]); ok {
		a.pairMatrixImages(beta, alpha, out, s)
		return
	}
	faultinject.Fire(faultinject.Quadrature, beta, out)
	a.pairMatrixQuadrature(beta, alpha, out, s)
}

func (a *Assembler) pairMatrixImages(beta, alpha int, out []float64, s *pairScratch) {
	k := a.k
	elA := &a.mesh.Elements[alpha]
	elB := &a.mesh.Elements[beta]
	srcLayer := a.elemLayer[alpha]
	obsLayer := a.elemLayer[beta]
	lo, hi, _ := a.ladder.pair(srcLayer, obsLayer)
	pref := 1 / (4 * math.Pi * a.model.Conductivity(srcLayer))
	lenB := elB.Seg.Length()

	// Near pairs (self, touching, adjacent) get the refined outer rule: the
	// inner analytic integral varies sharply along the test element there.
	gpPos, gpW, gpShape := a.gpPos[beta], a.gpW, a.gpShape
	if beta == alpha ||
		elB.Seg.DistToSegment(elA.Seg) < 0.5*(lenB+elA.Seg.Length()) {
		gpPos, gpW, gpShape = a.gpPosN[beta], a.gpWN, a.gpShapeN
	}

	maxAccum := 0.0
	smallGroups := 0
	for gi := lo; gi < hi; gi++ {
		for i := range s.group {
			s.group[i] = 0
		}
		for _, im := range a.ladder.group(gi) {
			segI := im.applySegment(elA.Seg)
			for g, chi := range gpPos {
				shapeIntegrals(chi, segI.A, segI.B, elA.Radius, a.linear, s.inner)
				wg := gpW[g] * lenB * im.w
				for j := 0; j < k; j++ {
					wj := wg * gpShape[g][j]
					for i := 0; i < k; i++ {
						s.group[j*k+i] += wj * s.inner[i]
					}
				}
			}
		}
		gmax := 0.0
		for i, v := range s.group {
			out[i] += v
			if av := math.Abs(v); av > gmax {
				gmax = av
			}
			if av := math.Abs(out[i]); av > maxAccum {
				maxAccum = av
			}
		}
		if gmax <= a.opt.SeriesTol*maxAccum {
			smallGroups++
			if smallGroups >= 2 {
				break
			}
		} else {
			smallGroups = 0
		}
	}
	for i := range out {
		out[i] *= pref
	}
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
