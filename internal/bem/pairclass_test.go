package bem

import (
	"context"
	"math"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// exactFlatPair is the oracle of the pair-class path: the flat kernel on the
// pair's own raw geometry — no quantization, no canonical pose — with the
// source header built exactly as buildPlan builds it and the test Gauss
// points read from the element's precomputed positions.
func exactFlatPair(a *Assembler, beta, alpha int, out []float64, s *pairScratch) {
	elA := &a.mesh.Elements[alpha]
	elB := &a.mesh.Elements[beta]
	lo, hi, ok := a.ladder.pair(a.elemLayer[alpha], a.elemLayer[beta])
	if !ok {
		a.pairMatrixExact(beta, alpha, out, s)
		return
	}
	t := elA.Seg.Dir()
	pe := planElem{
		pref:    1 / (4 * math.Pi * a.model.Conductivity(a.elemLayer[alpha])),
		radius2: elA.Radius * elA.Radius,
		l:       elA.Seg.Length(),
		tx:      t.X,
		ty:      t.Y,
		tz:      t.Z,
		az0:     elA.Seg.A.Z,
		grpLo:   lo,
		grpHi:   hi,
	}
	pe.invL = 1 / pe.l
	lenB := elB.Seg.Length()
	gpPos, gpW, gpShape := a.gpPos[beta], a.gpW, a.gpShape
	if beta == alpha || elB.Seg.DistToSegment(elA.Seg) < 0.5*(lenB+pe.l) {
		gpPos, gpW, gpShape = a.gpPosN[beta], a.gpWN, a.gpShapeN
	}
	for g, chi := range gpPos {
		dx, dy := chi.X-elA.Seg.A.X, chi.Y-elA.Seg.A.Y
		s.hxy[g] = dx*pe.tx + dy*pe.ty
		s.dxy2[g] = dx*dx + dy*dy
		s.chiZ[g] = chi.Z
		wl := gpW[g] * lenB
		s.wsh0[g] = wl * gpShape[g][0]
		s.wsh1[g] = wl * gpShape[g][1]
	}
	for i := range out {
		out[i] = 0
	}
	a.flatSeries(&pe, len(gpPos), out, s)
}

// exactFlatMatrix assembles the global matrix from exactFlatPair, one
// evaluation per pair, in the dense path's scatter order.
func exactFlatMatrix(a *Assembler) *linalg.SymMatrix {
	s := a.newScratch()
	r := linalg.NewSymMatrix(a.mesh.NumDoF)
	out := make([]float64, a.k*a.k)
	for beta := range a.mesh.Elements {
		for alpha := 0; alpha <= beta; alpha++ {
			exactFlatPair(a, beta, alpha, out, s)
			a.assemblePair(r, beta, alpha, out)
		}
	}
	return r
}

// rotated returns g turned by angle (radians) about the origin.
func rotated(g *grid.Grid, angle float64) *grid.Grid {
	c, s := math.Cos(angle), math.Sin(angle)
	rot := func(p geom.Vec3) geom.Vec3 { return geom.V(c*p.X-s*p.Y, s*p.X+c*p.Y, p.Z) }
	out := &grid.Grid{Name: g.Name}
	for _, cd := range g.Conductors {
		out.AddConductor(rot(cd.Seg.A), rot(cd.Seg.B), cd.Radius)
	}
	return out
}

// classFixtureMeshes returns the meshes of the class oracle: a uniform and a
// graded (β = 0.3) lattice with rods, the uniform one turned by 30° (no
// lattice axis left on a coordinate axis), and an interconnected system.
func classFixtureMeshes(t *testing.T, model soil.Model, kind grid.ElementKind) map[string]*grid.Mesh {
	t.Helper()
	uniform := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	uniform.AddRod(0, 0, 0.8, 2.5, 0.007)
	uniform.AddRod(20, 20, 0.8, 2.5, 0.007)
	graded := grid.RectMeshGraded(0, 0, 24, 18, 4, 3, 0.8, 0.006, 0.3)
	graded.AddRod(24, 0, 0.8, 2.5, 0.007)
	grids := map[string]*grid.Grid{
		"uniform":        uniform,
		"graded":         graded,
		"rotated30":      rotated(uniform, math.Pi/6),
		"interconnected": grid.Interconnected(40, 3),
	}
	var depths []float64
	if model.NumLayers() > 1 {
		depths = []float64{1.0, 3.0}
	}
	out := map[string]*grid.Mesh{}
	for name, g := range grids {
		m, err := grid.Discretize(g.SplitAtDepths(depths...), kind, 4)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	return out
}

// TestPairClassesMatchExactFlat is the oracle of the class path: across
// uniform, two-layer and three-layer soil (whose deep pairs take the
// quadrature fallback), linear and constant elements and uniform, graded,
// rotated and interconnected (two-layer and uniform soil) meshes, every
// global entry stays within
// 1e-12·max|A| of the exact per-pair flat kernel and Req within 1e-10
// relative.
func TestPairClassesMatchExactFlat(t *testing.T) {
	for sname, model := range flatFixtureModels(t) {
		for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
			for mname, m := range classFixtureMeshes(t, model, kind) {
				if mname == "interconnected" && model.NumLayers() > 2 {
					continue // seconds of quadrature fallback; the lattices cover it
				}
				a, err := New(m, model, Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := a.MatrixCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				want := exactFlatMatrix(a)
				scale := want.MaxAbs()
				worst := 0.0
				for i := 0; i < want.Order(); i++ {
					for j := 0; j <= i; j++ {
						worst = math.Max(worst, math.Abs(got.At(i, j)-want.At(i, j)))
					}
				}
				if worst > 1e-12*scale {
					t.Errorf("%s/%v/%s: worst entry Δ %.3g > 1e-12·max|A| = %.3g", sname, kind, mname, worst, 1e-12*scale)
				}
				reqWant, reqGot := solveStoreReq(t, m, want), solveStoreReq(t, m, got)
				rel := math.Abs(reqGot-reqWant) / reqWant
				if rel > 1e-10 {
					t.Errorf("%s/%v/%s: Req classes %v exact %v (rel Δ %.3g > 1e-10)", sname, kind, mname, reqGot, reqWant, rel)
				}
				t.Logf("%s/%v/%s: %d classes / %d pairs, worst entry Δ %.2g·max|A|, Req rel Δ %.2g",
					sname, kind, mname, a.NumClasses(), a.NumPairs(), worst/scale, rel)
			}
		}
	}
}

// isoMesh returns a copy of m with every node mapped by the horizontal
// isometry t (element order, orientation and DoF numbering unchanged).
func isoMesh(m *grid.Mesh, t isometry) *grid.Mesh {
	out := *m
	out.Elements = append([]grid.Element(nil), m.Elements...)
	mp := func(p geom.Vec3) geom.Vec3 {
		x, y := t.apply(p.X, p.Y)
		return geom.V(x, y, p.Z)
	}
	for i := range out.Elements {
		el := &out.Elements[i]
		el.Seg = geom.Seg(mp(el.Seg.A), mp(el.Seg.B))
	}
	return &out
}

// assertSameMatrix fails unless a and b are bitwise equal.
func assertSameMatrix(t *testing.T, what string, a, b *linalg.SymMatrix) {
	t.Helper()
	for i := 0; i < a.Order(); i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				t.Fatalf("%s: entry (%d,%d) %v vs %v", what, i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// mirrorMatrices assembles m and its image under t in model.
func mirrorMatrices(t *testing.T, m *grid.Mesh, model soil.Model, iso isometry) (*linalg.SymMatrix, *linalg.SymMatrix) {
	t.Helper()
	var out [2]*linalg.SymMatrix
	for i, mm := range []*grid.Mesh{m, isoMesh(m, iso)} {
		a, err := New(mm, model, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if out[i], _, err = a.MatrixCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return out[0], out[1]
}

// TestPairClassMirrorBitIdentical: x → −x is exact in floating point and the
// class keys are built to be covariant under it, so the mirrored mesh
// assembles bit for bit the same matrix (the DoF permutation is the
// identity: nodes keep their numbers). The three-layer model is left out:
// its quadrature-fallback pairs have no class, and that kernel's field
// points sit on one side of each conductor.
func TestPairClassMirrorBitIdentical(t *testing.T) {
	for sname, model := range flatFixtureModels(t) {
		if model.NumLayers() > 2 {
			continue
		}
		for mname, m := range classFixtureMeshes(t, model, grid.Linear) {
			a, b := mirrorMatrices(t, m, model, isoFlipX)
			assertSameMatrix(t, sname+"/"+mname+" mirror_x", a, b)
		}
	}
}

// TestPairClassWorkerInvariant: the class loop is bit-identical across
// worker counts, loop strategies and schedules.
func TestPairClassWorkerInvariant(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	m := classFixtureMeshes(t, model, grid.Linear)["graded"]
	var ref *linalg.SymMatrix
	for _, opt := range []Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: 4},
		{Workers: 4, Schedule: sched.Schedule{Kind: sched.Static, Chunk: 3}},
		{Workers: 3, Loop: InnerLoop, Schedule: sched.Schedule{Kind: sched.Guided, Chunk: 1}},
	} {
		a, err := New(m, model, opt)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := a.MatrixCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = r
			if a.NumClasses() >= a.NumPairs() {
				t.Errorf("graded lattice: %d classes for %d pairs, want sharing", a.NumClasses(), a.NumPairs())
			}
			var total int64
			for _, n := range a.WorkerPairs() {
				total += n
			}
			if total != int64(a.NumClasses()) {
				t.Errorf("WorkerPairs sums to %d, want the %d evaluated classes", total, a.NumClasses())
			}
			continue
		}
		assertSameMatrix(t, "workers/loop/schedule variant", ref, r)
	}
}

// TestPairClassCancelledDuringKeyPhase: a cancelled context stops the
// classification before any class is evaluated.
func TestPairClassCancelledDuringKeyPhase(t *testing.T) {
	model := soil.NewUniform(0.01)
	m := classFixtureMeshes(t, model, grid.Linear)["uniform"]
	a, err := New(m, model, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := a.MatrixCtx(ctx); err != context.Canceled {
		t.Errorf("MatrixCtx on a cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestPairClassKeyAllocsNothing pins the key phase's per-pair cost model:
// classifying a pair allocates nothing.
func TestPairClassKeyAllocsNothing(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	m := classFixtureMeshes(t, model, grid.Linear)["graded"]
	a, err := New(m, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var key PairKey
	n := len(m.Elements)
	allocs := testing.AllocsPerRun(5, func() {
		for beta := 0; beta < n; beta++ {
			for alpha := 0; alpha <= beta; alpha++ {
				a.PairClass(beta, alpha, &key)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("PairClass allocates %v times per sweep of the triangle", allocs)
	}
}

// TestPairClassRefusals checks the one path without a class: a layer pair
// without an image expansion (the quadrature fallback of a 3-layer model).
func TestPairClassRefusals(t *testing.T) {
	var key PairKey
	three, err := soil.NewMultiLayer([]float64{0.02, 0.008, 0.03}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// A MultiLayer model only carries an image expansion for (src, obs) =
	// (1, 1), so rods buried inside layer 2 (z ∈ [2, 5]) force the
	// quadrature fallback for every pair touching them.
	deep := &grid.Grid{}
	for i := 0; i < 3; i++ {
		deep.AddRod(float64(i)*2, 0, 0.5, 1.0, 0.01) // layer 1
		deep.AddRod(float64(i)*2, 3, 2.5, 2.0, 0.01) // layer 2
	}
	dm, err := grid.Discretize(deep, grid.Linear, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := New(dm, three, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refused, classed := 0, 0
	for beta := range dm.Elements {
		for alpha := 0; alpha <= beta; alpha++ {
			if _, ok := asm.PairClass(beta, alpha, &key); ok {
				classed++
			} else {
				refused++
			}
		}
	}
	if refused == 0 || classed == 0 {
		t.Errorf("3-layer model: %d pairs classed, %d refused; want both", classed, refused)
	}
}

// FuzzPairClassMirror: a random small mesh and a random D4 transform give
// bit-identical matrices under the (identity) DoF permutation.
func FuzzPairClassMirror(f *testing.F) {
	f.Add(int64(1), uint8(1), 3.0, 2.0, 0.7)
	f.Add(int64(7), uint8(6), 5.5, 4.25, 1.3)
	f.Add(int64(42), uint8(5), 2.0, 2.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, iso uint8, w, h, depth float64) {
		if !(w > 0.5 && w < 50 && h > 0.5 && h < 50 && depth > 0.05 && depth < 3) {
			t.Skip()
		}
		nx, ny := 2+int(uint64(seed)%3), 2+int(uint64(seed>>8)%3)
		g := grid.RectMeshGraded(float64(seed%7)-3, float64(seed%5)-2, w, h, nx, ny, depth, 0.006, 0.1*float64(uint64(seed)%4))
		g.AddRod(float64(seed%7)-3, float64(seed%5)-2, depth, 1.5, 0.007)
		m, err := grid.Discretize(g.SplitAtDepths(depth+0.4), grid.Linear, 0.6*math.Max(w/float64(nx), h/float64(ny)))
		if err != nil {
			t.Skip()
		}
		model := soil.NewTwoLayer(0.005, 0.016, depth+0.4)
		a, b := mirrorMatrices(t, m, model, isometry(iso%8))
		assertSameMatrix(t, "D4 image", a, b)
	})
}
