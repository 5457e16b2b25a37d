package bem

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// TestSegmentIntegralGradsMatchDifferences verifies the closed-form
// gradients against central finite differences of segmentIntegrals.
func TestSegmentIntegralGradsMatchDifferences(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const h = 1e-6
	for trial := 0; trial < 300; trial++ {
		a := geom.V(r.NormFloat64()*2, r.NormFloat64()*2, 1+r.Float64())
		b := a.Add(geom.V(r.NormFloat64(), r.NormFloat64(), r.Float64()).Scale(3))
		if b.Sub(a).Norm() < 0.2 {
			continue
		}
		x := geom.V(r.NormFloat64()*5, r.NormFloat64()*5, r.Float64()*4)
		if geom.Seg(a, b).AxialDistToPoint(x) < 0.05 {
			continue // stay away from the clamp region where ∇ is defined ≡ 0 radially
		}
		g0, g1 := segmentIntegralGrads(x, a, b, 0.001)

		for dim := 0; dim < 3; dim++ {
			var e geom.Vec3
			switch dim {
			case 0:
				e = geom.V(h, 0, 0)
			case 1:
				e = geom.V(0, h, 0)
			default:
				e = geom.V(0, 0, h)
			}
			i0p, i1p := segmentIntegrals(x.Add(e), a, b, 0.001)
			i0m, i1m := segmentIntegrals(x.Sub(e), a, b, 0.001)
			fd0 := (i0p - i0m) / (2 * h)
			fd1 := (i1p - i1m) / (2 * h)
			var a0, a1 float64
			switch dim {
			case 0:
				a0, a1 = g0.X, g1.X
			case 1:
				a0, a1 = g0.Y, g1.Y
			default:
				a0, a1 = g0.Z, g1.Z
			}
			scale := 1 + math.Abs(fd0) + math.Abs(fd1)
			if math.Abs(a0-fd0) > 2e-4*scale || math.Abs(a1-fd1) > 2e-4*scale {
				t.Fatalf("trial %d dim %d: analytic (%v, %v) vs FD (%v, %v)\nx=%v seg=%v->%v",
					trial, dim, a0, a1, fd0, fd1, x, a, b)
			}
		}
	}
}

// solvedAssembler returns a solved small system for gradient tests.
func solvedAssembler(t *testing.T, model soil.Model) (*Assembler, []float64) {
	t.Helper()
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, model, Options{SeriesTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := a.MatrixCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("CG: %v", err)
	}
	return a, res.X
}

// TestGradPotentialMatchesDifferences validates the evaluator's ∇V against
// finite differences of its V for both soil families.
func TestGradPotentialMatchesDifferences(t *testing.T) {
	for _, model := range []soil.Model{
		soil.NewUniform(0.016),
		soil.NewTwoLayer(0.005, 0.016, 1.2),
	} {
		a, sigma := solvedAssembler(t, model)
		fe := a.Evaluator()
		const h = 1e-5
		for _, x := range []geom.Vec3{
			geom.V(25, 10, 0.3), geom.V(10, 10, 2.0), geom.V(-5, -5, 0.5), geom.V(30, 30, 3),
		} {
			g := fe.GradientAt(x, sigma)
			fd := geom.V(
				(fe.PotentialAt(x.Add(geom.V(h, 0, 0)), sigma)-fe.PotentialAt(x.Add(geom.V(-h, 0, 0)), sigma))/(2*h),
				(fe.PotentialAt(x.Add(geom.V(0, h, 0)), sigma)-fe.PotentialAt(x.Add(geom.V(0, -h, 0)), sigma))/(2*h),
				(fe.PotentialAt(x.Add(geom.V(0, 0, h)), sigma)-fe.PotentialAt(x.Add(geom.V(0, 0, -h)), sigma))/(2*h),
			)
			if !g.ApproxEqual(fd, 1e-4*(1+fd.Norm())) {
				t.Errorf("%s at %v: analytic %v vs FD %v", model.Describe(), x, g, fd)
			}
		}
	}
}

// TestSurfaceFieldIsHorizontal checks the boundary condition σᵀn = 0 on the
// earth surface: the current density (and E) must have no vertical
// component at z = 0.
func TestSurfaceFieldIsHorizontal(t *testing.T) {
	a, sigma := solvedAssembler(t, soil.NewTwoLayer(0.005, 0.016, 1.2))
	for _, x := range []geom.Vec3{geom.V(25, 10, 0), geom.V(-3, 5, 0), geom.V(10, 40, 0)} {
		e := a.Evaluator().ElectricField(x, sigma)
		if math.Abs(e.Z) > 1e-3*(1+e.Norm()) {
			t.Errorf("vertical E at surface point %v: %v", x, e)
		}
	}
}

// TestCurrentDensityRespectsOhm checks J = −γ∇V with the local layer
// conductivity, including the jump of J's magnitude across the interface
// while the tangential E stays continuous.
func TestCurrentDensityRespectsOhm(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.2)
	a, sigma := solvedAssembler(t, model)
	fe := a.Evaluator()
	x := geom.V(25, 10, 0.5)
	j := fe.CurrentDensity(x, sigma)
	e := fe.ElectricField(x, sigma)
	want := e.Scale(model.Conductivity(1))
	if !j.ApproxEqual(want, 1e-12*(1+want.Norm())) {
		t.Errorf("J = %v, γE = %v", j, e.Scale(model.Conductivity(1)))
	}
	// Normal current continuity across the interface: Jz just above equals
	// Jz just below (eq. 2.3's transmission condition).
	const eps = 1e-3
	jUp := fe.CurrentDensity(geom.V(25, 10, 1.2-eps), sigma)
	jDn := fe.CurrentDensity(geom.V(25, 10, 1.2+eps), sigma)
	if math.Abs(jUp.Z-jDn.Z) > 5e-3*(1+math.Abs(jUp.Z)) {
		t.Errorf("normal current jump across interface: %v vs %v", jUp.Z, jDn.Z)
	}
}

// TestFieldPointsTowardElectrodeAtDepth: below the grid the potential
// decreases away from the conductors, so E points away from the grid
// (current flows outward from the electrode).
func TestFieldDirection(t *testing.T) {
	a, sigma := solvedAssembler(t, soil.NewUniform(0.016))
	// Far to the +x side at electrode depth: E should point mainly +x.
	e := a.Evaluator().ElectricField(geom.V(60, 10, 0.8), sigma)
	if e.X <= 0 {
		t.Errorf("E at +x side points inward: %v", e)
	}
	if math.Abs(e.Y) > e.X {
		t.Errorf("unexpected transverse field: %v", e)
	}
}

// TestGradFallbackForHankelModels checks the finite-difference fallback is
// wired for multilayer models.
func TestGradFallbackForHankelModels(t *testing.T) {
	if testing.Short() {
		t.Skip("multilayer assembly is slow")
	}
	ml, err := soil.NewMultiLayer([]float64{0.005, 0.016}, []float64{1.2})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-6
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, ml, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := a.MatrixCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	grad := a.Evaluator().GradientAt(geom.V(15, 5, 0.5), res.X)
	if grad.Norm() == 0 || !grad.IsFinite() {
		t.Errorf("fallback gradient = %v", grad)
	}
	// Away from the grid on +x, V decreases with x.
	if grad.X >= 0 {
		t.Errorf("potential not decaying: grad %v", grad)
	}
}
