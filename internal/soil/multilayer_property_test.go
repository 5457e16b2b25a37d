package soil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"earthing/internal/geom"
)

// randThreeLayer draws random physically plausible three-layer models.
func randThreeLayer(r *rand.Rand) *MultiLayer {
	rho := func() float64 {
		return math.Exp(math.Log(10) + r.Float64()*(math.Log(1000)-math.Log(10)))
	}
	m, err := NewMultiLayer(
		[]float64{1 / rho(), 1 / rho(), 1 / rho()},
		[]float64{0.5 + r.Float64()*2, 0.5 + r.Float64()*3},
	)
	if err != nil {
		panic(err)
	}
	m.Tol = 1e-9
	return m
}

// imageHankelGap draws a random three-layer model and top-layer point pair
// from seed and returns the disagreement between the double-series image
// expansion (300 groups) and the independent Hankel evaluation, relative to
// 1 + |Hankel|. declined reports that ImageExpansion refused the model;
// skip that the points fell too close to compare.
func imageHankelGap(seed int64) (gap float64, declined, skip bool) {
	r := rand.New(rand.NewSource(seed))
	m := randThreeLayer(r)
	h1 := m.depths[0]
	xi := geom.V(0, 0, 0.1+r.Float64()*0.8*h1)
	x := geom.V(0.5+r.Float64()*8, r.Float64()*4, r.Float64()*0.9*h1)
	if x.Dist(xi) < 0.3 {
		return 0, false, true
	}
	img, ok := sumImages(m, x, xi, 300)
	if !ok {
		return 0, true, false
	}
	hank := m.PointPotential(x, xi)
	return math.Abs(img-hank) / (1 + math.Abs(hank)), false, false
}

// TestQuickThreeLayerImagesMatchHankel: for random three-layer models and
// random top-layer point pairs, the double-series image expansion and the
// Hankel evaluation agree within 2e-4. A declined model is a failure, not a
// pass: the draws span contrasts up to 100:1, all of which the expansion
// must serve.
func TestQuickThreeLayerImagesMatchHankel(t *testing.T) {
	f := func(seed int64) bool {
		gap, declined, skip := imageHankelGap(seed)
		return skip || !declined && gap <= 2e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestThreeLayerImagesMatchHankelFixedSeeds pins high-contrast draws of the
// property above that a reflection series cut at 64 powers got wrong
// (relative gaps 3.2e-3, 3.7e-4 and 5.5e-4; in the first, a 75:1 then 1:58
// contrast, the truncated ladder diverged past group 100).
func TestThreeLayerImagesMatchHankelFixedSeeds(t *testing.T) {
	for _, seed := range []int64{4771111244002888862, 665, 1169} {
		gap, declined, skip := imageHankelGap(seed)
		switch {
		case skip:
			t.Errorf("seed %d: draw no longer compares a point pair", seed)
		case declined:
			t.Errorf("seed %d: ImageExpansion declined the model", seed)
		case gap > 2e-4:
			t.Errorf("seed %d: image series vs Hankel gap %.3g > 2e-4", seed, gap)
		}
	}
}

// TestImageExpansionStopsAtUntrustedGroup pins the moment check: a ladder
// built from a reflection series that lost mass (here a hand-corrupted Γ
// whose λ = 0 moment is off by 0.1, far above trustTol·maxDepth) ends at the
// last group it can trust instead of serving the corrupted ones.
func TestImageExpansionStopsAtUntrustedGroup(t *testing.T) {
	model := func() *MultiLayer {
		m, err := NewMultiLayer([]float64{0.1, 0.0013, 0.077}, []float64{1.9, 3.35})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	groups := func(imgs []Image) int {
		n := 0
		for _, im := range imgs {
			n = max(n, im.Group+1)
		}
		return n
	}
	good := model()
	imgs, ok := good.ImageExpansion(1, 1, 5)
	if !ok || groups(imgs) != 6 {
		t.Fatalf("converged ladder: ok = %v, %d groups, want 6", ok, groups(imgs))
	}
	bad := model()
	bad.expandOnce(0) // group 0 only; Γ is expanded
	bad.gammaSeries.c[0] += 0.1
	imgs, ok = bad.ImageExpansion(1, 1, 5)
	if !ok || groups(imgs) != 1 {
		t.Fatalf("corrupted ladder: ok = %v, %d groups, want group 0 alone", ok, groups(imgs))
	}
}

// TestQuickThreeLayerReciprocity: the Hankel kernel satisfies G(x,ξ)=G(ξ,x)
// for random models and cross-layer pairs.
func TestQuickThreeLayerReciprocity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randThreeLayer(r)
		total := m.depths[1]
		x := geom.V(r.Float64()*6, r.Float64()*6, r.Float64()*1.5*total)
		xi := geom.V(r.Float64()*6, 0, 0.05+r.Float64()*1.5*total)
		if x.Dist(xi) < 0.3 {
			return true
		}
		a := m.PointPotential(x, xi)
		b := m.PointPotential(xi, x)
		return math.Abs(a-b) <= 1e-4*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
