package bem

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// fieldEvalFixture builds an assembler over a mesh that mixes horizontal
// grid elements and a rod (split at the model interfaces when needed), plus
// a deterministic pseudo-solution vector.
func fieldEvalFixture(t testing.TB, model soil.Model, kind grid.ElementKind, opt Options) (*Assembler, []float64) {
	t.Helper()
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	g.AddRod(5, 5, 0.8, 2.5, 0.007)
	var depths []float64
	if model.NumLayers() > 1 {
		depths = []float64{1.0, 3.0} // interfaces of the layered fixtures below
	}
	gs := g.SplitAtDepths(depths...)
	m, err := grid.Discretize(gs, kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, model, opt)
	if err != nil {
		t.Fatal(err)
	}
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	return a, sigma
}

// fieldEvalPoints samples observation points on the surface, at depth inside
// every layer, and close to the conductors (where the ρ clamp engages).
func fieldEvalPoints() []geom.Vec3 {
	r := rand.New(rand.NewSource(7))
	pts := []geom.Vec3{
		geom.V(10, 10, 0),       // surface over the grid
		geom.V(-12, 25, 0),      // surface outside the grid
		geom.V(10, 0.001, 0),    // surface above an edge conductor
		geom.V(5, 5, 0.81),      // just below the rod top
		geom.V(3, 3, 0.8),       // on the conductor plane
		geom.V(10, 10.005, 0.8), // ~radius from a conductor axis
		geom.V(7, 9, 1.5),       // second layer (two-layer models)
		geom.V(9, 6, 2.5),       // third layer (multilayer models)
		geom.V(40, -30, 5),      // far field at depth
	}
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.V(r.Float64()*40-10, r.Float64()*40-10, r.Float64()*3))
	}
	return pts
}

// TestFieldEvaluatorMatchesPotential is the core equivalence suite: the
// batched engine must reproduce the closed-form referencePotential to ≤ 1e-10
// across uniform, two-layer and multilayer soils (the latter exercising the
// mixed image/quadrature plan), for linear and constant elements. Both run
// at a converged series tolerance: surface points read the surface tables,
// which are always summed to convergence.
func TestFieldEvaluatorMatchesPotential(t *testing.T) {
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.01}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-6
	cases := []struct {
		name  string
		model soil.Model
	}{
		{"uniform", soil.NewUniform(0.016)},
		{"two-layer", soil.NewTwoLayer(0.005, 0.016, 1.0)},
		{"three-layer", ml},
	}
	for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
		for _, c := range cases {
			a, sigma := fieldEvalFixture(t, c.model, kind, Options{SeriesTol: convergedTol})
			fe := a.Evaluator()
			for _, x := range fieldEvalPoints() {
				want := a.referencePotential(x, sigma)
				got := fe.PotentialAt(x, sigma)
				if d := math.Abs(got - want); d > 1e-10 {
					t.Errorf("%s/%v: V(%v) batch %v vs reference %v (Δ=%g)",
						c.name, kind, x, got, want, d)
				}
			}
		}
	}
}

// TestFieldEvaluatorMatchesGradPotential checks the gradient engine against
// the closed-form referenceGradient (including the finite-difference
// fallback of multilayer off-top pairs) to ≤ 1e-10 per component.
func TestFieldEvaluatorMatchesGradPotential(t *testing.T) {
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.01}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-6
	cases := []struct {
		name  string
		model soil.Model
	}{
		{"uniform", soil.NewUniform(0.016)},
		{"two-layer", soil.NewTwoLayer(0.005, 0.016, 1.0)},
		{"three-layer", ml},
	}
	for _, c := range cases {
		a, sigma := fieldEvalFixture(t, c.model, grid.Linear, Options{})
		fe := a.Evaluator()
		for _, x := range fieldEvalPoints() {
			want := a.referenceGradient(x, sigma)
			got := fe.GradientAt(x, sigma)
			d := got.Sub(want).Norm()
			// The FD fallback integrand is itself noisy at the quadrature
			// tolerance; image-kernel layers must agree to 1e-10.
			tol := 1e-10 * (1 + want.Norm())
			if d > tol {
				t.Errorf("%s: ∇V(%v) batch %v vs reference %v (Δ=%g)", c.name, x, got, want, d)
			}
		}
	}
}

// TestPotentialBatchMatchesSequentialExactly asserts the parallel batch is
// bit-identical to the sequential batch — the analog of the matrix
// generation's parallel-correctness invariant.
func TestPotentialBatchMatchesSequentialExactly(t *testing.T) {
	a, sigma := fieldEvalFixture(t, soil.NewTwoLayer(0.005, 0.016, 1.0), grid.Linear, Options{})
	fe := a.Evaluator()
	pts := fieldEvalPoints()
	seq := make([]float64, len(pts))
	par := make([]float64, len(pts))
	ctx := context.Background()
	if err := fe.PotentialBatchCtx(ctx, pts, sigma, 2.5, seq, BatchOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fe.PotentialBatchCtx(ctx, pts, sigma, 2.5, par, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d: parallel %v != sequential %v", i, par[i], seq[i])
		}
	}
	// Spot-check scaling against the per-point core.
	if want := 2.5 * fe.PotentialAt(pts[3], sigma); seq[3] != want {
		t.Errorf("scale not applied: %v vs %v", seq[3], want)
	}

	grads := make([]geom.Vec3, len(pts))
	if err := fe.GradBatchCtx(ctx, pts, sigma, grads, BatchOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	for i, x := range pts[:8] {
		if grads[i] != fe.GradientAt(x, sigma) {
			t.Fatalf("grad batch differs at %d", i)
		}
	}
}

// TestFieldEvaluatorZeroAllocs guards the engine's central property: once
// the plan is built, the per-point evaluation allocates nothing.
func TestFieldEvaluatorZeroAllocs(t *testing.T) {
	a, sigma := fieldEvalFixture(t, soil.NewTwoLayer(0.005, 0.016, 1.0), grid.Linear, Options{})
	fe := a.Evaluator()
	x := geom.V(11, 7, 0)
	fe.PotentialAt(x, sigma) // build the plan outside the measurement
	if n := testing.AllocsPerRun(100, func() { fe.PotentialAt(x, sigma) }); n != 0 {
		t.Errorf("PotentialAt allocates %v times per point", n)
	}
	fe.GradientAt(x, sigma)
	if n := testing.AllocsPerRun(100, func() { fe.GradientAt(x, sigma) }); n != 0 {
		t.Errorf("GradientAt allocates %v times per point", n)
	}
}

// TestEvaluatorCachedAndConcurrent checks Assembler.Evaluator returns one
// shared instance and that concurrent first-use (lazy plan build) is safe —
// run under -race in CI.
func TestEvaluatorCachedAndConcurrent(t *testing.T) {
	a, sigma := fieldEvalFixture(t, soil.NewTwoLayer(0.005, 0.016, 1.0), grid.Linear, Options{})
	if a.Evaluator() != a.Evaluator() {
		t.Fatal("Evaluator not cached")
	}
	pts := fieldEvalPoints()
	out := make([]float64, len(pts))
	if err := a.Evaluator().PotentialBatchCtx(context.Background(), pts, sigma, 1, out, BatchOptions{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.IsNaN(v) {
			t.Fatalf("NaN at point %d", i)
		}
	}
}

func benchFixture(b *testing.B) (*Assembler, []float64, []geom.Vec3) {
	m, err := grid.BarberaMesh()
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(m, soil.NewTwoLayer(0.005, 0.016, 1.0), Options{})
	if err != nil {
		b.Fatal(err)
	}
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	var pts []geom.Vec3
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			pts = append(pts, geom.V(-10+float64(i)*10, -10+float64(j)*9, 0))
		}
	}
	return a, sigma, pts
}

// BenchmarkPotentialReference measures the closed-form oracle the evaluator
// is pinned to (ns/op is ns/point).
func BenchmarkPotentialReference(b *testing.B) {
	a, sigma, pts := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.referencePotential(pts[i%len(pts)], sigma)
	}
}

// BenchmarkPotentialBatch measures the batched engine on the same points
// (ns/op is ns/point; must report 0 allocs/op).
func BenchmarkPotentialBatch(b *testing.B) {
	a, sigma, pts := benchFixture(b)
	fe := a.Evaluator()
	fe.PotentialAt(pts[0], sigma) // plan build outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.PotentialAt(pts[i%len(pts)], sigma)
	}
}

// BenchmarkGradReference / BenchmarkGradBatch are the gradient counterparts.
func BenchmarkGradReference(b *testing.B) {
	a, sigma, pts := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.referenceGradient(pts[i%len(pts)], sigma)
	}
}

func BenchmarkGradBatch(b *testing.B) {
	a, sigma, pts := benchFixture(b)
	fe := a.Evaluator()
	fe.GradientAt(pts[0], sigma)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.GradientAt(pts[i%len(pts)], sigma)
	}
}
