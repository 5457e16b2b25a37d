package bem

import (
	"context"
	"math"
	"testing"

	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// reqWithOptions assembles and solves a fixed grid with given options.
func reqWithOptions(t *testing.T, opt Options) float64 {
	t.Helper()
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, soil.NewTwoLayer(0.005, 0.016, 1.0), opt)
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
	return 1 / TotalCurrent(m, res.X)
}

// TestGaussOrderConvergence: raising the outer order converges Req; the
// default near-field refinement already sits close to the converged value.
func TestGaussOrderConvergence(t *testing.T) {
	// A high-order reference.
	ref := reqWithOptions(t, Options{GaussOrder: 16, NearGaussOrder: 16, SeriesTol: 1e-9})

	type cfg struct {
		name string
		opt  Options
	}
	cases := []cfg{
		{"order2-flat", Options{GaussOrder: 2, NearGaussOrder: 2, SeriesTol: 1e-9}},
		{"order4-flat", Options{GaussOrder: 4, NearGaussOrder: 4, SeriesTol: 1e-9}},
		{"order4-near8", Options{GaussOrder: 4, SeriesTol: 1e-9}}, // default refinement
		{"order8-flat", Options{GaussOrder: 8, NearGaussOrder: 8, SeriesTol: 1e-9}},
	}
	errs := map[string]float64{}
	for _, c := range cases {
		req := reqWithOptions(t, c.opt)
		errs[c.name] = math.Abs(req-ref) / ref
	}
	if errs["order4-flat"] > errs["order2-flat"]+1e-9 {
		t.Errorf("order 4 (%v) worse than order 2 (%v)", errs["order4-flat"], errs["order2-flat"])
	}
	if errs["order8-flat"] > errs["order4-flat"]+1e-9 {
		t.Errorf("order 8 (%v) worse than order 4 (%v)", errs["order8-flat"], errs["order4-flat"])
	}
	// Near-field refinement recovers most of the order-8 accuracy at
	// order-4 cost.
	if errs["order4-near8"] > errs["order4-flat"] {
		t.Errorf("near refinement (%v) worse than flat order 4 (%v)",
			errs["order4-near8"], errs["order4-flat"])
	}
	// Everything is within engineering tolerance of the reference anyway.
	for name, e := range errs {
		if e > 0.01 {
			t.Errorf("%s: relative error %v", name, e)
		}
	}
}

// TestNearOrderOptionNormalization: NearGaussOrder below GaussOrder is
// clamped up; zero defaults to 2×.
func TestNearOrderOptionNormalization(t *testing.T) {
	o := Options{GaussOrder: 6, NearGaussOrder: 2}.withDefaults()
	if o.NearGaussOrder != 6 {
		t.Errorf("NearGaussOrder = %d, want clamped 6", o.NearGaussOrder)
	}
	o = Options{GaussOrder: 6}.withDefaults()
	if o.NearGaussOrder != 12 {
		t.Errorf("default NearGaussOrder = %d, want 12", o.NearGaussOrder)
	}
	o = Options{GaussOrder: 12}.withDefaults()
	if o.NearGaussOrder != 16 {
		t.Errorf("capped NearGaussOrder = %d, want 16", o.NearGaussOrder)
	}
}
