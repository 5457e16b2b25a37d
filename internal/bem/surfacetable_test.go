package bem

import (
	"context"
	"math"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// walkEvaluator returns a field evaluator of a whose surface plan has no
// surface tables: every element walks the ladder, the table branch's
// oracle.
func walkEvaluator(a *Assembler) *FieldEvaluator {
	fe := newFieldEvaluator(a)
	p := fe.plan(farSurface.layer)
	for i := range p.elems {
		p.elems[i].surf = nil
	}
	return fe
}

// designCandidate is a design-loop candidate: an n×n lattice over a
// 62 × 47 m site at 0.65 m with rods perimeter rods 3 m long, split at the
// interface depths and discretized as the engine does (one element per
// conductor, two per rod piece).
func designCandidate(t testing.TB, n, rods int, depths ...float64) *grid.Mesh {
	t.Helper()
	return designCandidateAt(t, n, rods, 0.65, depths...)
}

// designCandidateAt is designCandidate buried at depth z.
func designCandidateAt(t testing.TB, n, rods int, z float64, depths ...float64) *grid.Mesh {
	t.Helper()
	const w, h = 62.0, 47.0
	g := grid.RectMesh(0, 0, w, h, n, n, z, 0.006)
	for k := 0; k < rods; k++ {
		x, y := grid.PerimeterPoint(w, h, 2*(w+h)*float64(k)/float64(rods))
		g.AddRod(x, y, z, 3, 0.007)
	}
	return discretizeRods2(t, g.SplitAtDepths(depths...))
}

// discretizeRods2 discretizes g as the engine does at RodElements 2: one
// linear element per horizontal conductor, two per rod piece.
func discretizeRods2(t testing.TB, g *grid.Grid) *grid.Mesh {
	t.Helper()
	m, err := grid.DiscretizeN(g, grid.Linear, func(c grid.Conductor) int {
		if c.Seg.A.Z != c.Seg.B.Z {
			return 2
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// surfaceRaster is the surface raster of the design loop's voltage check
// over mesh m: step apart, over the bounds and a 2 m margin.
func surfaceRaster(m *grid.Mesh, step float64) []geom.Vec3 {
	b := m.Bounds()
	x0, y0 := b.Min.X-2, b.Min.Y-2
	nx := int((b.Max.X+2-x0)/step) + 1
	ny := int((b.Max.Y+2-y0)/step) + 1
	pts := make([]geom.Vec3, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			pts = append(pts, geom.V(x0+float64(i)*step, y0+float64(j)*step, 0))
		}
	}
	return pts
}

// solvedSigma assembles and solves a's system for its unit-GPR density.
func solvedSigma(t testing.TB, a *Assembler) []float64 {
	t.Helper()
	r, _, err := a.MatrixCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := linalg.NewCholeskyBlocked(r, linalg.FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := ch.Solve(RHS(a.mesh))
	if err != nil {
		t.Fatal(err)
	}
	return sigma
}

// surfaceOrder is the surface gate's inner order for plan element pe (which
// has a surface table) at surface point x, or 0 when x is refused.
func surfaceOrder(pe *planElem, x geom.Vec3) int {
	dx, dy := x.X-pe.ax, x.Y-pe.ay
	q := dx*pe.ty - dy*pe.tx
	return farInner(dx*pe.tx+dy*pe.ty, q*q, pe.l, pe.surf.dz2min, 2*pe.radius2-pe.surf.dz2min)
}

// surfaceAdmission returns the share of the (point, element) pairs of pts
// with a surface table (horizontal elements in layer pairs with reflected
// images) whose point passes the gate.
func surfaceAdmission(fe *FieldEvaluator, pts []geom.Vec3) float64 {
	p := fe.plan(farSurface.layer)
	admitted, tabulated := 0, 0
	for _, x := range pts {
		for i := range p.elems {
			if pe := &p.elems[i]; pe.surf != nil {
				tabulated++
				if surfaceOrder(pe, x) > 0 {
					admitted++
				}
			}
		}
	}
	return float64(admitted) / float64(tabulated)
}

// TestSurfaceTableMatchesExactLadder is the surface branch's oracle: at a
// converged series tolerance, PotentialAt on the surface matches the ladder
// walk of every element within 1e-10 relative per point, on design-loop
// candidates (3×3 and 5×5 lattices with eight perimeter rods), the Fig 5.4
// Balaidos raster in soil B (at half resolution per axis;
// TestFig54RasterMatchesReference covers the whole raster), a K > 0 soil
// and a three-layer soil; and the
// gate admits most (point, horizontal element) pairs of the design
// candidates.
func TestSurfaceTableMatchesExactLadder(t *testing.T) {
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.008}, []float64{1.2, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-8
	design := soil.NewTwoLayer(0.005, 0.016, 1.3)
	cases := []struct {
		name  string
		mesh  func(testing.TB) *grid.Mesh
		model soil.Model
		step  float64
		// admit is the least share of (point, horizontal element) pairs
		// the gate admits.
		admit float64
	}{
		{"design-3x3", func(t testing.TB) *grid.Mesh { return designCandidate(t, 3, 8, 1.3) }, design, 5, 0.7},
		{"design-5x5", func(t testing.TB) *grid.Mesh { return designCandidate(t, 5, 8, 1.3) }, design, 5, 0.85},
		{"K+0.5", func(t testing.TB) *grid.Mesh { return designCandidate(t, 4, 4, 1.0) }, soil.NewTwoLayer(0.015, 0.005, 1.0), 4, 0},
		{"three-layer", func(t testing.TB) *grid.Mesh { return designCandidate(t, 4, 4, 1.2, 3.2) }, ml, 4, 0},
		{"fig54-balaidos-B", balaidosMesh, soil.NewTwoLayer(0.0025, 0.020, 0.7), 0, 0},
	}
	for _, c := range cases {
		m := c.mesh(t)
		a, err := New(m, c.model, Options{Workers: 2, SeriesTol: convergedTol})
		if err != nil {
			t.Fatal(err)
		}
		sigma := solvedSigma(t, a)
		pts := fig54Points(m, 28, 22)
		if c.step > 0 {
			pts = surfaceRaster(m, c.step)
		}
		fe, walk := a.Evaluator(), walkEvaluator(a)
		worst := 0.0
		for _, x := range pts {
			got, want := fe.PotentialAt(x, sigma), walk.PotentialAt(x, sigma)
			worst = math.Max(worst, math.Abs(got-want)/math.Abs(want))
		}
		if worst > 1e-10 {
			t.Errorf("%s: surface table differs from the ladder walk by %.3g relative (budget 1e-10)", c.name, worst)
		}
		share := surfaceAdmission(fe, pts)
		if share < c.admit {
			t.Errorf("%s: gate admits %.0f %% of (point, horizontal element) pairs, want ≥ %.0f %%", c.name, 100*share, 100*c.admit)
		}
		t.Logf("%s: %d points, %.0f %% of horizontal pairs tabulated, worst rel Δ %.2g", c.name, len(pts), 100*share, worst)
	}
}

// balaidosMesh is the Balaidos grid split at soil B's interface, two
// elements per rod piece.
func balaidosMesh(t testing.TB) *grid.Mesh {
	return discretizeRods2(t, grid.Balaidos().SplitAtDepths(0.7))
}

// fig54Points is the nx×ny Figure 5.4 raster over m's bounds and a 20 m
// margin.
func fig54Points(m *grid.Mesh, nx, ny int) []geom.Vec3 {
	const margin = 20.0
	b := m.Bounds()
	x0, y0 := b.Min.X-margin, b.Min.Y-margin
	x1, y1 := b.Max.X+margin, b.Max.Y+margin
	pts := make([]geom.Vec3, nx*ny)
	for j := 0; j < ny; j++ {
		y := y0 + float64(j)*(y1-y0)/float64(ny-1)
		for i := 0; i < nx; i++ {
			pts[j*nx+i] = geom.V(x0+float64(i)*(x1-x0)/float64(nx-1), y, 0)
		}
	}
	return pts
}

// TestSurfaceTableGateBoundary holds the surface gate at its edges on one
// 4 m bar: a point straight above it is refused and walks the ladder (bit
// for bit the walk), and points at the cap order farInnerMax are admitted
// and match the walk within 1e-10 relative.
func TestSurfaceTableGateBoundary(t *testing.T) {
	g := &grid.Grid{Name: "surface-gate"}
	g.AddConductor(geom.V(0, 0, 0.8), geom.V(4, 0, 0.8), 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, soil.NewTwoLayer(0.0025, 0.020, 1.0), Options{Workers: 1, SeriesTol: convergedTol})
	if err != nil {
		t.Fatal(err)
	}
	sigma := []float64{0.9, 1.1}
	fe, walk := a.Evaluator(), walkEvaluator(a)
	pe := &fe.plan(farSurface.layer).elems[0]
	if pe.surf == nil {
		t.Fatal("the bar has no surface table")
	}
	above := geom.V(2, 0, 0)
	if n := surfaceOrder(pe, above); n != 0 {
		t.Errorf("point straight above the bar admitted at order %d", n)
	}
	if got, want := fe.PotentialAt(above, sigma), walk.PotentialAt(above, sigma); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("point above the bar: %v, ladder walk %v", got, want)
	}

	nCap, worst := 0, 0.0
	for i := 0; i < 400; i++ {
		x := geom.V(-2+0.02*float64(i), 0.5+0.01*float64(i), 0)
		if surfaceOrder(pe, x) != farInnerMax {
			continue
		}
		nCap++
		got, want := fe.PotentialAt(x, sigma), walk.PotentialAt(x, sigma)
		worst = math.Max(worst, math.Abs(got-want)/math.Abs(want))
	}
	if nCap < 10 {
		t.Errorf("%d points at the cap order %d, want ≥ 10", nCap, farInnerMax)
	}
	if worst > 1e-10 {
		t.Errorf("cap-order point differs from the ladder walk by %.3g relative (budget 1e-10)", worst)
	}
	t.Logf("%d points at the cap order, worst rel Δ %.2g", nCap, worst)
}

// TestSurfaceTableWorkersBitIdentical: surface panels are built lazily by
// whichever worker first needs them. A raster on a fresh assembler is
// bitwise the same at 1, 2 and 8 workers, and the same tables get built.
func TestSurfaceTableWorkersBitIdentical(t *testing.T) {
	m := designCandidate(t, 5, 8, 1.3)
	model := soil.NewTwoLayer(0.005, 0.016, 1.3)
	pts := surfaceRaster(m, 5)
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	var want []float64
	var wantBytes int64
	for _, workers := range []int{1, 2, 8} {
		a, err := New(m, model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(pts))
		if _, err := a.Evaluator().PotentialBatchCtx(context.Background(), pts, sigma, 1, out, BatchOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantBytes = out, a.lad.footprint()
			continue
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers %d: V(%v) = %v, %v at one worker", workers, pts[i], out[i], want[i])
			}
		}
		if b := a.lad.footprint(); b != wantBytes {
			t.Errorf("workers %d: ladder bytes %d, %d at one worker", workers, b, wantBytes)
		}
	}
}

// BenchmarkPotentialBatchDesignCandidate times the design loop's field
// stage for one candidate: the 5 m surface raster of a 5×5 lattice with
// eight perimeter rods in two-layer soil, at two workers on a fresh
// assembler, so each iteration builds its own surface panels.
func BenchmarkPotentialBatchDesignCandidate(b *testing.B) {
	m := designCandidate(b, 5, 8, 1.3)
	model := soil.NewTwoLayer(0.005, 0.016, 1.3)
	geo, err := NewGeometry(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	pts := surfaceRaster(m, 5)
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	out := make([]float64, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := NewWithGeometry(geo, model, Options{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Evaluator().PotentialBatchCtx(context.Background(), pts, sigma, 1, out, BatchOptions{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pts)), "points")
}
