package bem

import (
	"context"
	"testing"
	"time"

	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// TestThreeLayerImageAssemblyMatchesQuadrature runs the same 3-layer
// analysis twice: with the top-layer double-series image expansion (fast
// path, grid wholly in layer 1) and with the expansion disabled (pure
// Hankel quadrature), and compares the resulting equivalent resistances.
func TestThreeLayerImageAssemblyMatchesQuadrature(t *testing.T) {
	if testing.Short() {
		t.Skip("quadrature assembly is slow")
	}
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.5, 0.006)
	m, err := grid.Discretize(g, grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	gammas := []float64{0.004, 0.02, 0.008}
	thick := []float64{1.2, 2.0}

	mk := func() *soil.MultiLayer {
		ml, err := soil.NewMultiLayer(gammas, thick)
		if err != nil {
			t.Fatal(err)
		}
		ml.Tol = 1e-8
		return ml
	}

	reqOf := func(model soil.Model, opt Options) (float64, time.Duration) {
		a, err := New(m, model, opt)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		r, _, err := a.MatrixCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		dur := time.Since(start)
		res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-11})
		if err != nil || !res.Converged {
			t.Fatalf("CG: %v", err)
		}
		return 1 / TotalCurrent(m, res.X), dur
	}

	reqImg, tImg := reqOf(mk(), Options{GaussOrder: 6, SeriesTol: 1e-8, MaxGroups: 200})
	reqQuad, tQuad := reqOf(noImages{mk()}, Options{GaussOrder: 6})

	if rel := relDiff(reqImg, reqQuad); rel > 0.01 {
		t.Errorf("image Req %v vs quadrature Req %v (rel %v)", reqImg, reqQuad, rel)
	}
	// The image path should be dramatically faster (each quadrature entry
	// costs dozens of Hankel integrals).
	if tImg > tQuad {
		t.Logf("note: image path (%v) not faster than quadrature (%v) on this run", tImg, tQuad)
	}
}

// noImages hides a model's image expansion, forcing the quadrature path.
type noImages struct {
	soil.Model
}

func (n noImages) ImageExpansion(src, obs, maxGroup int) ([]soil.Image, bool) {
	return nil, false
}

// TestMixedModeLayers runs a grid with electrodes in layers 1 and 2 of a
// 3-layer soil: pairs within layer 1 use images, everything touching layer
// 2 uses quadrature, and the result must still satisfy the boundary
// condition.
func TestMixedModeLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("quadrature assembly is slow")
	}
	g := grid.HorizontalWire(0, 0, 0.5, 8, 0.005) // layer 1
	g.AddRod(4, 0, 0.5, 1.2, 0.007)               // crosses into layer 2 (interface 1.0)
	gs := g.SplitAtDepths(1.0)
	m, err := grid.DiscretizeN(gs, grid.Linear, func(c grid.Conductor) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.008}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-7
	a, err := New(m, ml, Options{GaussOrder: 4, SeriesTol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := a.MatrixCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := linalg.SolveCG(r, RHS(m), linalg.CGOptions{Tol: 1e-10})
	if err != nil || !res.Converged {
		t.Fatalf("CG: %v", err)
	}
	// Boundary condition recovered on a layer-1 element surface.
	el := m.Elements[1]
	p := surfacePoint(el.Seg.Midpoint(), &el)
	if v := a.Evaluator().PotentialAt(p, res.X); v < 0.9 || v > 1.1 {
		t.Errorf("V on electrode = %v, want ≈1", v)
	}
}
