package bem

import (
	"math"
	"math/rand"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// surfaceCase is one soil of the surface-skip tests, on either the mixed
// grid-and-rod fixture of fieldeval_test.go or, with lattice set, a 4×4
// lattice with a rod at every corner crossing the interface at 1.5 m (the
// src = 2 → obs = 1 pairs).
type surfaceCase struct {
	name    string
	model   soil.Model
	lattice bool
}

// surfaceCases covers uniform soil, two-layer soil with κ < 0 (conductive
// bottom) and κ > 0 (resistive bottom), and a three-layer model.
func surfaceCases(t *testing.T) []surfaceCase {
	t.Helper()
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.01}, []float64{1.0, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-6
	return []surfaceCase{
		{"uniform", soil.NewUniform(0.016), false},
		{"two-layer κ<0", soil.NewTwoLayer(0.005, 0.016, 1.0), false},
		{"two-layer κ>0", soil.NewTwoLayer(0.016, 0.005, 1.0), false},
		{"three-layer", ml, false},
		{"lattice uniform", soil.NewUniform(0.01), true},
		{"lattice κ<0", soil.NewTwoLayer(0.005, 0.016, 1.5), true},
		{"lattice κ>0", soil.NewTwoLayer(0.016, 0.004, 1.5), true},
	}
}

// fixture returns the case's assembler and a pseudo-solution vector.
func (c surfaceCase) fixture(t *testing.T, kind grid.ElementKind) (*Assembler, []float64) {
	t.Helper()
	if !c.lattice {
		return fieldEvalFixture(t, c.model, kind)
	}
	g := grid.RectMesh(0, 0, 30, 30, 4, 4, 0.6, 0.006)
	for _, xy := range [][2]float64{{0, 0}, {30, 0}, {0, 30}, {30, 30}} {
		g.AddRod(xy[0], xy[1], 0.6, 3, 0.007)
	}
	var depths []float64
	if c.model.NumLayers() > 1 {
		depths = []float64{1.5}
	}
	m, err := grid.Discretize(g.SplitAtDepths(depths...), kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, c.model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	return a, sigma
}

// surfacePoints samples the earth surface over, beside and far from the
// fixtures, including points straight above conductors and rod heads.
func surfacePoints() []geom.Vec3 {
	r := rand.New(rand.NewSource(13))
	pts := []geom.Vec3{
		geom.V(10, 10, 0), geom.V(5, 5, 0), geom.V(0, 0, 0), geom.V(30, 30, 0),
		geom.V(10, 0.001, 0), geom.V(7.5, 3, 0), geom.V(-40, 60, 0),
	}
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.V(r.Float64()*50-10, r.Float64()*50-10, 0))
	}
	return pts
}

// TestLadderMirrorSymmetric: every soil model's ladder passes the mirror
// check, so surface points take the halved kernel.
func TestLadderMirrorSymmetric(t *testing.T) {
	for _, c := range surfaceCases(t) {
		if lad := newImageLadder(c.model, 40); !lad.mirror {
			t.Errorf("%s: ladder not reported mirror-symmetric", c.name)
		}
	}
}

// TestMirrorCheckRejectsAsymmetry pins the check on hand-built ladders: a
// sign < 0 image must match a sign > 0 one in |offset| and weight, one to
// one, within its own group.
func TestMirrorCheckRejectsAsymmetry(t *testing.T) {
	ladder := func(groups ...[]ladderImage) *imageLadder {
		lad := &imageLadder{series: [][2]int32{{0, int32(len(groups))}}, nl: 1}
		for _, g := range groups {
			lad.grpOff = append(lad.grpOff, int32(len(lad.imgs)))
			lad.imgs = append(lad.imgs, g...)
		}
		lad.grpOff = append(lad.grpOff, int32(len(lad.imgs)))
		return lad
	}
	cases := []struct {
		name string
		lad  *imageLadder
		want bool
	}{
		{"pairs", ladder([]ladderImage{{1, 0, 1}, {-1, 0, 1}}, []ladderImage{{1, 2, 0.5}, {-1, -2, 0.5}, {1, -2, 0.5}, {-1, 2, 0.5}}), true},
		{"offset not negated", ladder([]ladderImage{{1, 2, 0.5}, {-1, 2, 0.5}}), false},
		{"weight differs", ladder([]ladderImage{{1, 2, 0.5}, {-1, -2, 0.25}}), false},
		{"unpaired image", ladder([]ladderImage{{1, 0, 1}, {-1, 0, 1}, {1, 2, 0.5}}), false},
		{"mirror in another group", ladder([]ladderImage{{1, 2, 0.5}}, []ladderImage{{-1, -2, 0.5}}), false},
		{"duplicate against single", ladder([]ladderImage{{1, 2, 0.5}, {1, 2, 0.5}, {-1, -2, 0.5}, {-1, 2, 0.5}}), false},
	}
	for _, c := range cases {
		if got := c.lad.mirrorSymmetric(); got != c.want {
			t.Errorf("%s: mirrorSymmetric = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAsymmetricLadderEvaluatesEveryImage breaks the mirror symmetry of a
// real ladder (one sign < 0 image of the primary group gets its own weight)
// and checks that the evaluator notices and sums every image: surface
// potentials and gradients must still match the reference oracle, which reads
// the same ladder image by image.
func TestAsymmetricLadderEvaluatesEveryImage(t *testing.T) {
	a, sigma := fieldEvalFixture(t, soil.NewTwoLayer(0.005, 0.016, 1.0), grid.Linear)
	lo, _, _ := a.ladder.pair(1, 1)
	for i := a.ladder.grpOff[lo]; i < a.ladder.grpOff[lo+1]; i++ {
		if a.ladder.imgs[i].sign < 0 {
			a.ladder.imgs[i].w = 0.75
		}
	}
	if a.ladder.mirror = a.ladder.mirrorSymmetric(); a.ladder.mirror {
		t.Fatal("perturbed ladder still reported mirror-symmetric")
	}
	fe := a.Evaluator()
	for _, x := range surfacePoints() {
		want, got := a.referencePotential(x, sigma), fe.PotentialAt(x, sigma)
		if d := math.Abs(got - want); d > 1e-10*math.Abs(want) {
			t.Errorf("V(%v) evaluator %v vs reference %v (Δ=%g)", x, got, want, d)
		}
		gw, gg := a.referenceGradient(x, sigma), fe.GradientAt(x, sigma)
		if d := gg.Sub(gw).Norm(); d > 1e-10*(1+gw.Norm()) {
			t.Errorf("∇V(%v) evaluator %v vs reference %v (Δ=%g)", x, gg, gw, d)
		}
	}
}

// TestSurfacePotentialMatchesLegacy: on the surface the halved, log-fused
// kernel reproduces referencePotential (which sums every image one by one)
// within 1e-10 relative for every soil, with linear and constant elements.
func TestSurfacePotentialMatchesLegacy(t *testing.T) {
	for _, c := range surfaceCases(t) {
		for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
			a, sigma := c.fixture(t, kind)
			fe := a.Evaluator()
			for _, x := range surfacePoints() {
				want, got := a.referencePotential(x, sigma), fe.PotentialAt(x, sigma)
				if d := math.Abs(got - want); d > 1e-10*math.Abs(want) {
					t.Errorf("%s/%v: V(%v) evaluator %v vs reference %v (rel %g)",
						c.name, kind, x, got, want, d/math.Abs(want))
				}
			}
		}
	}
}

// TestSurfacePotentialContinuous: V at z = 0 (mirror skip) and at
// z = 1e-12 (every image) agree within 1e-10 relative.
func TestSurfacePotentialContinuous(t *testing.T) {
	for _, c := range surfaceCases(t) {
		a, sigma := c.fixture(t, grid.Linear)
		fe := a.Evaluator()
		for _, x := range surfacePoints() {
			v0 := fe.PotentialAt(x, sigma)
			v1 := fe.PotentialAt(geom.V(x.X, x.Y, 1e-12), sigma)
			if d := math.Abs(v1 - v0); d > 1e-10*math.Abs(v0) {
				t.Errorf("%s: V(%v) = %v at z = 0 but %v at z = 1e-12", c.name, x, v0, v1)
			}
		}
	}
}

// TestSurfaceGradientHorizontal: on the surface of an image-only model the
// evaluator's field is exactly horizontal (mirror pairs cancel in z and are
// dropped) and its x, y components match referenceGradient within 1e-10.
func TestSurfaceGradientHorizontal(t *testing.T) {
	for _, c := range surfaceCases(t) {
		if c.model.NumLayers() > 2 {
			continue // off-top layer pairs use the quadrature fallback
		}
		a, sigma := c.fixture(t, grid.Linear)
		fe := a.Evaluator()
		for _, x := range surfacePoints() {
			got, want := fe.GradientAt(x, sigma), a.referenceGradient(x, sigma)
			if got.Z != 0 {
				t.Errorf("%s: ∇V(%v).Z = %g, want exactly 0", c.name, x, got.Z)
			}
			tol := 1e-10 * (1 + want.Norm())
			if dx, dy := math.Abs(got.X-want.X), math.Abs(got.Y-want.Y); dx > tol || dy > tol {
				t.Errorf("%s: ∇V(%v) evaluator %v vs reference %v", c.name, x, got, want)
			}
		}
	}
}
