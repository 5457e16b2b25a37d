package soil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"earthing/internal/geom"
)

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

func TestUniformPointPotential(t *testing.T) {
	u := NewUniform(0.02)
	xi := geom.V(0, 0, 1)
	x := geom.V(3, 0, 1)
	want := (1/3.0 + 1/math.Sqrt(9+4)) / (4 * math.Pi * 0.02)
	if got := u.PointPotential(x, xi); relDiff(got, want) > 1e-12 {
		t.Errorf("PointPotential = %v want %v", got, want)
	}
}

func TestUniformImageExpansion(t *testing.T) {
	u := NewUniform(0.01)
	imgs, ok := u.ImageExpansion(1, 1, 100)
	if !ok || len(imgs) != 2 {
		t.Fatalf("expansion = %v ok=%v", imgs, ok)
	}
	// Source at depth 2: primary at z=2, surface image at z=−2.
	p := geom.V(1, 1, 2)
	if got := imgs[0].Apply(p); got != p {
		t.Errorf("primary image moved the source: %v", got)
	}
	if got := imgs[1].Apply(p); got != geom.V(1, 1, -2) {
		t.Errorf("surface image = %v, want (1,1,-2)", got)
	}
}

func TestUniformLayerQueries(t *testing.T) {
	u := NewUniform(0.01)
	if u.NumLayers() != 1 || u.LayerOf(5) != 1 || u.Conductivity(1) != 0.01 {
		t.Error("uniform layer queries wrong")
	}
}

func TestNewUniformPanicsOnBadGamma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewUniform(-1)
}

func TestTwoLayerReducesToUniform(t *testing.T) {
	gamma := 0.016
	tl := NewTwoLayer(gamma, gamma, 1.0)
	u := NewUniform(gamma)
	if k := tl.K(); k != 0 {
		t.Fatalf("K = %v", k)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		x := geom.V(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*5)
		xi := geom.V(r.Float64()*20-10, r.Float64()*20-10, 0.1+r.Float64()*3)
		if x.Dist(xi) < 0.05 {
			continue
		}
		got := tl.PointPotential(x, xi)
		want := u.PointPotential(x, xi)
		if relDiff(got, want) > 1e-10 {
			t.Fatalf("x=%v xi=%v: two-layer %v vs uniform %v", x, xi, got, want)
		}
	}
}

func TestTwoLayerLayerOf(t *testing.T) {
	tl := NewTwoLayer(0.005, 0.016, 1.0)
	if tl.LayerOf(0.5) != 1 || tl.LayerOf(1.0) != 1 || tl.LayerOf(1.5) != 2 {
		t.Error("LayerOf wrong")
	}
	if tl.NumLayers() != 2 {
		t.Error("NumLayers wrong")
	}
	if tl.Conductivity(1) != 0.005 || tl.Conductivity(2) != 0.016 {
		t.Error("Conductivity wrong")
	}
}

func TestTwoLayerKSign(t *testing.T) {
	// Resistive top layer over conductive bottom → K < 0 (Barberá case).
	if k := NewTwoLayer(0.005, 0.016, 1.0).K(); k >= 0 || relDiff(k, -11.0/21) > 1e-12 {
		t.Errorf("K = %v", k)
	}
	// Conductive top over resistive bottom → K > 0.
	if k := NewTwoLayer(0.02, 0.005, 1.0).K(); k <= 0 {
		t.Errorf("K = %v", k)
	}
}

// TestTwoLayerReciprocity exercises the fundamental Green's-function symmetry
// G(x, ξ) = G(ξ, x), including across layers, which fixes the relative
// weights (1+K)/γ1 = (1−K)/γ2 of the cross-layer expansions.
func TestTwoLayerReciprocity(t *testing.T) {
	tl := NewTwoLayer(0.005, 0.016, 1.0)
	cases := []struct{ x, xi geom.Vec3 }{
		{geom.V(2, 1, 0.5), geom.V(0, 0, 0.8)}, // both layer 1
		{geom.V(2, 1, 3.0), geom.V(0, 0, 2.5)}, // both layer 2
		{geom.V(2, 1, 0.4), geom.V(0, 0, 2.5)}, // cross layer
		{geom.V(5, -3, 1.8), geom.V(1, 1, 0.2)},
	}
	for _, c := range cases {
		a := tl.PointPotential(c.x, c.xi)
		b := tl.PointPotential(c.xi, c.x)
		if relDiff(a, b) > 1e-8 {
			t.Errorf("reciprocity violated at %v/%v: %v vs %v", c.x, c.xi, a, b)
		}
	}
}

// TestTwoLayerSurfaceFlux checks the natural boundary condition σᵀn = 0 on
// the earth surface: ∂V/∂z must vanish at z = 0.
func TestTwoLayerSurfaceFlux(t *testing.T) {
	tl := NewTwoLayer(0.005, 0.016, 1.0)
	xi := geom.V(0, 0, 0.8)
	const dz = 1e-5
	for _, rr := range []float64{0.5, 2, 5, 20} {
		v0 := tl.PointPotential(geom.V(rr, 0, 0), xi)
		v1 := tl.PointPotential(geom.V(rr, 0, dz), xi)
		grad := (v1 - v0) / dz
		scale := v0 / rr // characteristic potential gradient magnitude
		if math.Abs(grad) > 1e-3*math.Abs(scale) {
			t.Errorf("r=%v: surface flux %v not ≈ 0 (scale %v)", rr, grad, scale)
		}
	}
}

// TestTwoLayerInterfaceConditions checks continuity of potential and of the
// normal current density γ·∂V/∂z across the layer interface.
func TestTwoLayerInterfaceConditions(t *testing.T) {
	tl := NewTwoLayer(0.005, 0.016, 1.0)
	tl.Control = SeriesControl{Tol: 1e-12, MaxGroups: 2000}
	for _, src := range []geom.Vec3{{X: 0, Y: 0, Z: 0.8}, {X: 0, Y: 0, Z: 2.2}} {
		for _, rr := range []float64{0.7, 3, 10} {
			const eps = 1e-6
			h := tl.H
			vUp := tl.PointPotential(geom.V(rr, 0, h-eps), src)
			vDn := tl.PointPotential(geom.V(rr, 0, h+eps), src)
			if relDiff(vUp, vDn) > 1e-4 {
				t.Errorf("src=%v r=%v: potential jump %v vs %v", src, rr, vUp, vDn)
			}
			const dz = 1e-4
			gUp := (vUp - tl.PointPotential(geom.V(rr, 0, h-eps-dz), src)) / dz
			gDn := (tl.PointPotential(geom.V(rr, 0, h+eps+dz), src) - vDn) / dz
			fUp := tl.Gamma1 * gUp
			fDn := tl.Gamma2 * gDn
			scale := math.Abs(tl.Gamma1*vUp/rr) + math.Abs(fUp) + math.Abs(fDn)
			if math.Abs(fUp-fDn) > 2e-2*scale {
				t.Errorf("src=%v r=%v: flux jump γ1·%v=%v vs γ2·%v=%v", src, rr, gUp, fUp, gDn, fDn)
			}
		}
	}
}

// TestTwoLayerMatchesMultiLayer cross-validates the image-series kernels
// against the completely independent Hankel-transform evaluation.
func TestTwoLayerMatchesMultiLayer(t *testing.T) {
	tl := NewTwoLayer(0.005, 0.016, 1.0)
	tl.Control = SeriesControl{Tol: 1e-12, MaxGroups: 4000}
	ml, err := NewMultiLayer([]float64{0.005, 0.016}, []float64{1.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-10
	cases := []struct{ x, xi geom.Vec3 }{
		{geom.V(3, 0, 0.0), geom.V(0, 0, 0.8)},  // surface observer, src layer 1
		{geom.V(1, 2, 0.5), geom.V(0, 0, 0.8)},  // both layer 1
		{geom.V(2, 0, 2.5), geom.V(0, 0, 0.8)},  // src 1 → obs 2
		{geom.V(4, 0, 3.0), geom.V(0, 0, 2.2)},  // both layer 2
		{geom.V(2, 0, 0.3), geom.V(0, 0, 2.2)},  // src 2 → obs 1
		{geom.V(10, 0, 0.0), geom.V(0, 0, 1.9)}, // surface observer, src layer 2
	}
	for _, c := range cases {
		img := tl.PointPotential(c.x, c.xi)
		hank := ml.PointPotential(c.x, c.xi)
		if relDiff(img, hank) > 5e-6 {
			t.Errorf("x=%v xi=%v: image %v vs Hankel %v (rel %v)",
				c.x, c.xi, img, hank, relDiff(img, hank))
		}
	}
}

func TestMultiLayerReducesToUniform(t *testing.T) {
	ml, err := NewMultiLayer([]float64{0.02, 0.02, 0.02}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniform(0.02)
	cases := []struct{ x, xi geom.Vec3 }{
		{geom.V(2, 0, 0.5), geom.V(0, 0, 0.8)},
		{geom.V(1, 1, 4), geom.V(0, 0, 2)},
		{geom.V(3, 0, 0), geom.V(0, 0, 5)},
	}
	for _, c := range cases {
		got := ml.PointPotential(c.x, c.xi)
		want := u.PointPotential(c.x, c.xi)
		if relDiff(got, want) > 1e-6 {
			t.Errorf("x=%v xi=%v: %v vs uniform %v", c.x, c.xi, got, want)
		}
	}
}

func TestThreeLayerDegenerateMatchesTwoLayer(t *testing.T) {
	// γ2 = γ3 makes the third layer invisible.
	ml, err := NewMultiLayer([]float64{0.005, 0.016, 0.016}, []float64{1.0, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTwoLayer(0.005, 0.016, 1.0)
	tl.Control = SeriesControl{Tol: 1e-12, MaxGroups: 4000}
	cases := []struct{ x, xi geom.Vec3 }{
		{geom.V(2, 0, 0), geom.V(0, 0, 0.8)},
		{geom.V(1, 0, 2.0), geom.V(0, 0, 0.5)},
		{geom.V(3, 1, 5.0), geom.V(0, 0, 4.5)},
	}
	for _, c := range cases {
		got := ml.PointPotential(c.x, c.xi)
		want := tl.PointPotential(c.x, c.xi)
		if relDiff(got, want) > 1e-5 {
			t.Errorf("x=%v xi=%v: 3-layer %v vs 2-layer %v", c.x, c.xi, got, want)
		}
	}
}

func TestThreeLayerReciprocity(t *testing.T) {
	ml, err := NewMultiLayer([]float64{0.004, 0.02, 0.008}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, xi geom.Vec3 }{
		{geom.V(2, 0, 0.5), geom.V(0, 0, 2.0)}, // layers 1 and 2
		{geom.V(2, 0, 0.5), geom.V(0, 0, 4.0)}, // layers 1 and 3
		{geom.V(1, 1, 1.8), geom.V(0, 0, 5.0)}, // layers 2 and 3
		{geom.V(4, 0, 2.5), geom.V(0, 0, 1.2)}, // both layer 2
	}
	for _, c := range cases {
		a := ml.PointPotential(c.x, c.xi)
		b := ml.PointPotential(c.xi, c.x)
		if relDiff(a, b) > 1e-5 {
			t.Errorf("reciprocity: %v vs %v at %v/%v", a, b, c.x, c.xi)
		}
	}
}

func TestMultiLayerLayerOf(t *testing.T) {
	ml, err := NewMultiLayer([]float64{1, 2, 3}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		z    float64
		want int
	}{{0, 1}, {0.5, 1}, {1.0, 1}, {1.5, 2}, {3.0, 2}, {3.5, 3}, {100, 3}} {
		if got := ml.LayerOf(c.z); got != c.want {
			t.Errorf("LayerOf(%v) = %d want %d", c.z, got, c.want)
		}
	}
}

func TestNewMultiLayerValidation(t *testing.T) {
	if _, err := NewMultiLayer(nil, nil); err == nil {
		t.Error("empty model accepted")
	}
	if _, err := NewMultiLayer([]float64{1, 2}, nil); err == nil {
		t.Error("missing thickness accepted")
	}
	if _, err := NewMultiLayer([]float64{1, -2}, []float64{1}); err == nil {
		t.Error("negative conductivity accepted")
	}
	if _, err := NewMultiLayer([]float64{1, 2}, []float64{0}); err == nil {
		t.Error("zero thickness accepted")
	}
	if _, err := NewMultiLayer([]float64{1, 2, 3}, []float64{1, 4}); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

// TestConstructorsRejectNonFinite: every soil constructor rejects a
// conductivity or thickness that is NaN, ±Inf, zero or negative, and accepts
// a valid one.
func TestConstructorsRejectNonFinite(t *testing.T) {
	inf := math.Inf(1)
	ctors := []struct {
		name string
		make func(v float64) error
	}{
		{"Uniform", func(v float64) error { return panicErr(func() { NewUniform(v) }) }},
		{"TwoLayer γ1", func(v float64) error { return panicErr(func() { NewTwoLayer(v, 0.01, 1) }) }},
		{"TwoLayer γ2", func(v float64) error { return panicErr(func() { NewTwoLayer(0.01, v, 1) }) }},
		{"TwoLayer h", func(v float64) error { return panicErr(func() { NewTwoLayer(0.01, 0.02, v) }) }},
		{"MultiLayer γ", func(v float64) error { _, err := NewMultiLayer([]float64{0.01, v, 0.02}, []float64{1, 2}); return err }},
		{"MultiLayer thickness", func(v float64) error {
			_, err := NewMultiLayer([]float64{0.01, 0.03, 0.02}, []float64{1, v})
			return err
		}},
	}
	for _, c := range ctors {
		for _, v := range []float64{inf, -inf, math.NaN(), 0, -1} {
			if c.make(v) == nil {
				t.Errorf("%s: %g accepted", c.name, v)
			}
		}
		if err := c.make(0.5); err != nil {
			t.Errorf("%s: 0.5 rejected: %v", c.name, err)
		}
	}
}

// panicErr runs f and returns its panic as an error, or nil.
func panicErr(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f()
	return nil
}

func TestImageGroupStructure(t *testing.T) {
	tl := NewTwoLayer(0.005, 0.016, 1.0)
	k := tl.K()
	imgs, ok := tl.ImageExpansion(1, 1, 3)
	if !ok {
		t.Fatal("no expansion")
	}
	// 2 primary-group images + 4 per group for groups 1..3.
	if len(imgs) != 2+4*3 {
		t.Fatalf("len = %d", len(imgs))
	}
	for _, im := range imgs {
		wantW := math.Pow(k, float64(im.Group))
		if im.Group == 0 {
			wantW = 1
		}
		if relDiff(im.Weight, wantW) > 1e-12 {
			t.Errorf("group %d weight %v want %v", im.Group, im.Weight, wantW)
		}
		if im.Sign != 1 && im.Sign != -1 {
			t.Errorf("bad sign %v", im.Sign)
		}
	}
	// Cross-layer expansions.
	imgs12, _ := tl.ImageExpansion(1, 2, 2)
	if len(imgs12) != 6 {
		t.Errorf("src1→obs2 len = %d", len(imgs12))
	}
	for _, im := range imgs12 {
		wantW := (1 + k) * math.Pow(k, float64(im.Group))
		if relDiff(im.Weight, wantW) > 1e-12 {
			t.Errorf("12 group %d weight %v want %v", im.Group, im.Weight, wantW)
		}
	}
	imgs21, _ := tl.ImageExpansion(2, 1, 2)
	for _, im := range imgs21 {
		wantW := (1 - k) * math.Pow(k, float64(im.Group))
		if relDiff(im.Weight, wantW) > 1e-12 {
			t.Errorf("21 group %d weight %v want %v", im.Group, im.Weight, wantW)
		}
	}
}

func TestImageApplySegment(t *testing.T) {
	im := Image{Sign: -1, Offset: 2, Weight: 0.5}
	s := geom.Seg(geom.V(0, 0, 0.5), geom.V(1, 0, 0.5))
	got := im.ApplySegment(s)
	if got.A != geom.V(0, 0, 1.5) || got.B != geom.V(1, 0, 1.5) {
		t.Errorf("ApplySegment = %v", got)
	}
	if got.Length() != s.Length() {
		t.Error("image changed segment length")
	}
}

func TestPotentialDecay(t *testing.T) {
	// Potential decreases monotonically with horizontal distance in every
	// model (fixed depths).
	models := []Model{
		NewUniform(0.02),
		NewTwoLayer(0.005, 0.016, 1.0),
	}
	ml, _ := NewMultiLayer([]float64{0.004, 0.02, 0.008}, []float64{1, 2})
	models = append(models, ml)
	xi := geom.V(0, 0, 0.8)
	for _, m := range models {
		prev := math.Inf(1)
		for _, r := range []float64{1, 2, 4, 8, 16, 32} {
			v := m.PointPotential(geom.V(r, 0, 0), xi)
			if v <= 0 || v >= prev {
				t.Errorf("%s: potential not decaying: V(%v)=%v prev=%v", m.Describe(), r, v, prev)
			}
			prev = v
		}
	}
}

func TestDescribe(t *testing.T) {
	for _, m := range []Model{NewUniform(0.02), NewTwoLayer(0.005, 0.016, 1)} {
		if m.Describe() == "" {
			t.Error("empty description")
		}
	}
}

func BenchmarkTwoLayerPointPotential(b *testing.B) {
	tl := NewTwoLayer(0.005, 0.016, 1.0)
	x := geom.V(3, 1, 0)
	xi := geom.V(0, 0, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.PointPotential(x, xi)
	}
}

func BenchmarkMultiLayerPointPotential(b *testing.B) {
	ml, _ := NewMultiLayer([]float64{0.005, 0.016}, []float64{1.0})
	x := geom.V(3, 1, 0)
	xi := geom.V(0, 0, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.PointPotential(x, xi)
	}
}
