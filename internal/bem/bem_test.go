package bem

import (
	"math"
	"math/rand"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/quad"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

// solveReq assembles and solves a grid under the given model, returning the
// equivalent resistance for a unit GPR.
func solveReq(t *testing.T, g *grid.Grid, model soil.Model, maxElem float64, opt Options) float64 {
	t.Helper()
	m, err := grid.Discretize(g, grid.Linear, maxElem)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, model, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := a.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %v", res.Residual)
	}
	i := TotalCurrent(m, res.X)
	if i <= 0 {
		t.Fatalf("non-positive total current %v", i)
	}
	return 1 / i
}

// TestSegmentIntegralsAgainstQuadrature verifies the closed forms of the
// inner integrals against adaptive numeric integration for random segments
// and field points.
func TestSegmentIntegralsAgainstQuadrature(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		a := geom.V(r.NormFloat64()*3, r.NormFloat64()*3, r.Float64()*2)
		b := a.Add(geom.V(r.NormFloat64(), r.NormFloat64(), r.Float64()).Scale(2))
		if b.Sub(a).Norm() < 0.1 {
			continue
		}
		x := geom.V(r.NormFloat64()*4, r.NormFloat64()*4, r.Float64()*3)
		if geom.Seg(a, b).DistToPoint(x) < 0.05 {
			continue // quadrature reference becomes unreliable when singular
		}
		i0, i1 := segmentIntegrals(x, a, b, 0)
		l := b.Sub(a).Norm()
		q0 := quad.AdaptiveSimpson(func(s float64) float64 {
			return 1 / x.Dist(a.Lerp(b, s/l))
		}, 0, l, 1e-12, 40)
		q1 := quad.AdaptiveSimpson(func(s float64) float64 {
			return (s / l) / x.Dist(a.Lerp(b, s/l))
		}, 0, l, 1e-12, 40)
		if relDiff(i0, q0) > 1e-8 || relDiff(i1, q1) > 1e-8 {
			t.Fatalf("analytic (%v, %v) vs quadrature (%v, %v) for x=%v seg=%v->%v",
				i0, i1, q0, q1, x, a, b)
		}
	}
}

func TestSegmentIntegralsOnAxisClamped(t *testing.T) {
	// A field point exactly on the axis must produce finite integrals equal
	// to those of a point on the conductor surface.
	a, b := geom.V(0, 0, 1), geom.V(2, 0, 1)
	const radius = 0.01
	onAxis0, onAxis1 := segmentIntegrals(geom.V(1, 0, 1), a, b, radius)
	onSurf0, onSurf1 := segmentIntegrals(geom.V(1, radius, 1), a, b, radius)
	if math.IsInf(onAxis0, 0) || math.IsNaN(onAxis0) {
		t.Fatal("on-axis integral not finite")
	}
	if relDiff(onAxis0, onSurf0) > 1e-12 || relDiff(onAxis1, onSurf1) > 1e-12 {
		t.Errorf("clamp mismatch: axis (%v,%v) surface (%v,%v)", onAxis0, onAxis1, onSurf0, onSurf1)
	}
	// Shape split must sum to the constant integral.
	out := make([]float64, 2)
	shapeIntegrals(geom.V(0.3, 0.5, 1), a, b, radius, true, out)
	i0, _ := segmentIntegrals(geom.V(0.3, 0.5, 1), a, b, radius)
	if relDiff(out[0]+out[1], i0) > 1e-12 {
		t.Error("linear shape integrals do not sum to constant integral")
	}
}

func TestMatrixSPDAndSolvable(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	a, err := New(m, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := a.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	// Positive definite: Cholesky must succeed.
	ch, err := linalg.NewCholesky(r)
	if err != nil {
		t.Fatalf("Galerkin matrix not SPD: %v", err)
	}
	// Direct and PCG solutions agree (§4.3).
	xd, err := ch.Solve(RHS(m))
	if err != nil {
		t.Fatal(err)
	}
	res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("CG: %v %+v", err, res)
	}
	for i := range xd {
		if relDiff(xd[i], res.X[i]) > 1e-6 {
			t.Fatalf("direct vs CG mismatch at %d: %v vs %v", i, xd[i], res.X[i])
		}
	}
	// Physical sanity: all nodal leakage densities positive for a convex grid.
	for i, s := range res.X {
		if s <= 0 {
			t.Errorf("non-positive leakage density at node %d: %v", i, s)
		}
	}
}

// TestParallelVariantsIdentical is the core parallel-correctness test: every
// loop strategy × schedule × assembly mode × worker count must produce the
// same matrix as the sequential reference (the paper's transformation
// guarantees identical elemental matrices; assembly order may differ only
// by float association, so compare with a tight tolerance).
func TestParallelVariantsIdentical(t *testing.T) {
	g := grid.RectMesh(0, 0, 30, 30, 4, 4, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)

	ref, err := New(m, model, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rRef, _, err := ref.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	scale := rRef.MaxAbs()

	variants := []Options{
		{Workers: 4, Loop: OuterLoop, Schedule: sched.Schedule{Kind: sched.Dynamic, Chunk: 1}},
		{Workers: 4, Loop: OuterLoop, Schedule: sched.Schedule{Kind: sched.Static, Chunk: 16}},
		{Workers: 4, Loop: OuterLoop, Schedule: sched.Schedule{Kind: sched.Guided, Chunk: 1}},
		{Workers: 3, Loop: InnerLoop, Schedule: sched.Schedule{Kind: sched.Dynamic, Chunk: 4}},
		{Workers: 4, Loop: OuterLoop, Assembly: MutexAssemble},
		{Workers: 2, Loop: InnerLoop, Assembly: MutexAssemble},
		{Workers: 8, Loop: OuterLoop, Schedule: sched.Schedule{Kind: sched.Static}},
	}
	for _, opt := range variants {
		a, err := New(m, model, opt)
		if err != nil {
			t.Fatal(err)
		}
		r, stats, err := a.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Iterations == 0 {
			t.Errorf("%v/%v: no stats recorded", opt.Loop, opt.Schedule)
		}
		for i := 0; i < r.Order(); i++ {
			for j := 0; j <= i; j++ {
				if d := math.Abs(r.At(i, j) - rRef.At(i, j)); d > 1e-12*scale {
					t.Fatalf("%v/%v/%v: entry (%d,%d) differs by %v",
						opt.Loop, opt.Schedule, opt.Assembly, i, j, d)
				}
			}
		}
	}
}

// TestRodResistanceMatchesDwight validates the full pipeline against the
// classical driven-rod formula R = ρ/(2πL)·(ln(8L/d) − 1).
func TestRodResistanceMatchesDwight(t *testing.T) {
	const (
		gamma  = 0.01 // ρ = 100 Ω·m
		length = 3.0
		radius = 0.0075
	)
	g := grid.SingleRod(0, 0, 0, length, radius)
	req := solveReq(t, g, soil.NewUniform(gamma), 0.15, Options{})
	rho := 1 / gamma
	want := rho / (2 * math.Pi * length) * (math.Log(8*length/(2*radius)) - 1)
	if relDiff(req, want) > 0.03 {
		t.Errorf("rod Req = %.4f Ω, Dwight formula %.4f Ω", req, want)
	}
}

// TestWireResistanceMatchesSunde validates a buried horizontal wire against
// R = ρ/(πL)·(ln(2L/√(2·a·s)) − 1) (Sunde, wire of radius a at depth s).
func TestWireResistanceMatchesSunde(t *testing.T) {
	const (
		gamma  = 0.02
		length = 20.0
		radius = 0.005
		depth  = 0.8
	)
	g := grid.HorizontalWire(0, 0, depth, length, radius)
	req := solveReq(t, g, soil.NewUniform(gamma), 0.5, Options{})
	rho := 1 / gamma
	want := rho / (math.Pi * length) * (math.Log(2*length/math.Sqrt(2*radius*depth)) - 1)
	if relDiff(req, want) > 0.05 {
		t.Errorf("wire Req = %.4f Ω, Sunde formula %.4f Ω", req, want)
	}
}

// TestTwoLayerDegenerateMatchesUniformSystem checks that the full assembled
// system for K = 0 equals the uniform-soil system.
func TestTwoLayerDegenerateMatchesUniformSystem(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	aU, err := New(m, soil.NewUniform(0.016), Options{})
	if err != nil {
		t.Fatal(err)
	}
	aT, err := New(m, soil.NewTwoLayer(0.016, 0.016, 1.0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rU, _, _ := aU.Matrix()
	rT, _, _ := aT.Matrix()
	scale := rU.MaxAbs()
	for i := 0; i < rU.Order(); i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(rU.At(i, j)-rT.At(i, j)) > 1e-9*scale {
				t.Fatalf("entry (%d,%d): uniform %v vs K=0 two-layer %v", i, j, rU.At(i, j), rT.At(i, j))
			}
		}
	}
}

// TestBoundaryConditionRecovered solves a small grid and checks the computed
// potential on the electrode surface equals the imposed GPR (V = 1) — the
// defining equation (3.3) of the method.
func TestBoundaryConditionRecovered(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []soil.Model{
		soil.NewUniform(0.016),
		soil.NewTwoLayer(0.005, 0.016, 1.2),
	} {
		a, err := New(m, model, Options{GaussOrder: 6, SeriesTol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := a.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-12})
		if err != nil || !res.Converged {
			t.Fatalf("CG: %v %+v", err, res)
		}
		// Sample the potential on several conductor surface points (mid
		// elements, offset by the radius).
		for _, e := range []int{0, 5, 11} {
			el := m.Elements[e]
			p := surfacePoint(el.Seg.Midpoint(), &el)
			v := a.Potential(p, res.X)
			if math.Abs(v-1) > 0.05 {
				t.Errorf("%s: V on electrode surface = %v, want 1", model.Describe(), v)
			}
		}
	}
}

// TestPotentialFarField checks V(x) → IΓ/(2πγ|x|) far from the grid
// (half-space monopole).
func TestPotentialFarField(t *testing.T) {
	const gamma = 0.016
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, soil.NewUniform(gamma), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, _, _ := a.Matrix()
	res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	iTot := TotalCurrent(m, res.X)
	for _, d := range []float64{300, 1000} {
		x := geom.V(5+d, 5, 0)
		got := a.Potential(x, res.X)
		want := iTot / (2 * math.Pi * gamma * d)
		if relDiff(got, want) > 0.02 {
			t.Errorf("far field at %v: %v want %v", d, got, want)
		}
	}
}

// TestQuadratureFallbackMatchesImages compares the Hankel-model assembly
// (quadrature path) against the image-series assembly on the same two-layer
// soil.
func TestQuadratureFallbackMatchesImages(t *testing.T) {
	if testing.Short() {
		t.Skip("multilayer quadrature assembly is slow")
	}
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl := soil.NewTwoLayer(0.005, 0.016, 1.2)
	ml, err := soil.NewMultiLayer([]float64{0.005, 0.016}, []float64{1.2})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-7
	aI, err := New(m, tl, Options{GaussOrder: 6})
	if err != nil {
		t.Fatal(err)
	}
	aQ, err := New(m, ml, Options{GaussOrder: 6})
	if err != nil {
		t.Fatal(err)
	}
	rI, _, _ := aI.Matrix()
	rQ, _, _ := aQ.Matrix()
	// Compare resulting equivalent resistances (matrix entries differ more
	// because the self terms use different regularization paths).
	solve := func(r *linalg.SymMatrix) float64 {
		res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-11})
		if err != nil || !res.Converged {
			t.Fatalf("CG: %v", err)
		}
		return 1 / TotalCurrent(m, res.X)
	}
	reqI, reqQ := solve(rI), solve(rQ)
	if relDiff(reqI, reqQ) > 0.02 {
		t.Errorf("image Req %v vs quadrature Req %v", reqI, reqQ)
	}
}

func TestElementSpanningInterfaceRejected(t *testing.T) {
	g := grid.SingleRod(0, 0, 0.5, 2.0, 0.007) // crosses z = 1 interface
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(m, soil.NewTwoLayer(0.005, 0.016, 1.0), Options{})
	if err == nil {
		t.Fatal("interface-spanning element accepted")
	}
	// After splitting, it must be accepted.
	gs := g.SplitAtDepths(1.0)
	if len(gs.Conductors) != 2 {
		t.Fatalf("split produced %d conductors", len(gs.Conductors))
	}
	ms, err := grid.Discretize(gs, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ms, soil.NewTwoLayer(0.005, 0.016, 1.0), Options{}); err != nil {
		t.Fatalf("split mesh rejected: %v", err)
	}
}

func TestRHSAndTotalCurrent(t *testing.T) {
	g := grid.HorizontalWire(0, 0, 0.8, 10, 0.005)
	m, err := grid.Discretize(g, grid.Linear, 2.5) // 4 elements, 5 nodes
	if err != nil {
		t.Fatal(err)
	}
	nu := RHS(m)
	// End nodes carry L/2 = 1.25, interior nodes 2×1.25.
	if relDiff(nu[0], 1.25) > 1e-12 || relDiff(nu[1], 2.5) > 1e-12 {
		t.Errorf("nu = %v", nu)
	}
	if relDiff(linalg.Sum(nu), 10) > 1e-12 {
		t.Errorf("Σν = %v, want total length", linalg.Sum(nu))
	}
	// Uniform density of 2 A/m over 10 m → 20 A.
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 2
	}
	if got := TotalCurrent(m, sigma); relDiff(got, 20) > 1e-12 {
		t.Errorf("TotalCurrent = %v", got)
	}
	// Constant-element variant.
	mc, err := grid.Discretize(g, grid.Constant, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	nuc := RHS(mc)
	for _, v := range nuc {
		if relDiff(v, 2.5) > 1e-12 {
			t.Errorf("constant nu = %v", nuc)
		}
	}
	sigc := make([]float64, mc.NumDoF)
	for i := range sigc {
		sigc[i] = 2
	}
	if got := TotalCurrent(mc, sigc); relDiff(got, 20) > 1e-12 {
		t.Errorf("constant TotalCurrent = %v", got)
	}
}

func TestConstantElementsSolveToo(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	mC, err := grid.Discretize(g, grid.Constant, 0)
	if err != nil {
		t.Fatal(err)
	}
	mL, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := soil.NewUniform(0.016)
	reqOf := func(m *grid.Mesh) float64 {
		a, err := New(m, model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, _, _ := a.Matrix()
		res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-11})
		if err != nil || !res.Converged {
			t.Fatalf("CG: %v", err)
		}
		return 1 / TotalCurrent(m, res.X)
	}
	rc, rl := reqOf(mC), reqOf(mL)
	// The two element families must agree at the few-percent level on the
	// same mesh.
	if relDiff(rc, rl) > 0.05 {
		t.Errorf("constant Req %v vs linear Req %v", rc, rl)
	}
}

func TestLeakageDensityInterpolation(t *testing.T) {
	g := grid.HorizontalWire(0, 0, 0.8, 10, 0.005)
	m, _ := grid.Discretize(g, grid.Linear, 5)
	a, err := New(m, soil.NewUniform(0.02), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigma := make([]float64, m.NumDoF)
	sigma[m.Elements[0].DoF[0]] = 1
	sigma[m.Elements[0].DoF[1]] = 3
	if got := a.LeakageDensity(0, 0.5, sigma); got != 2 {
		t.Errorf("LeakageDensity = %v", got)
	}
	if got := a.LeakageDensity(0, 0, sigma); got != 1 {
		t.Errorf("LeakageDensity(0) = %v", got)
	}
}

func BenchmarkPairMatrixTwoLayer(b *testing.B) {
	m, err := grid.BarberaMesh()
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(m, soil.NewTwoLayer(0.005, 0.016, 1.0), Options{})
	if err != nil {
		b.Fatal(err)
	}
	cs := a.NewColumnScratch()
	out := make([]float64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PairMatrix(i%200, (i*7)%150, out, cs)
	}
}
