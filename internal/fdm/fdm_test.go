package fdm

import (
	"context"
	"math"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// hemisphereGrid marks a hemispherical electrode of radius r0 by a dense
// cluster of tiny "conductors" filling the hemisphere surface — the
// classical electrode with the exact half-space resistance ρ/(2π·r0).
func hemisphereGrid(r0, h float64) *grid.Grid {
	g := &grid.Grid{Name: "hemisphere"}
	// Vertical spokes from the surface to the hemisphere boundary sample
	// the volume densely enough that every lattice node inside is marked.
	step := h / 2
	for x := -r0; x <= r0+1e-9; x += step {
		for y := -r0; y <= r0+1e-9; y += step {
			if x*x+y*y > r0*r0 {
				continue
			}
			depth := math.Sqrt(r0*r0 - x*x - y*y)
			if depth < step {
				continue
			}
			g.AddConductor(geom.V(x, y, 0), geom.V(x, y, depth), 0.001)
		}
	}
	return g
}

func TestHemisphereMatchesClosedForm(t *testing.T) {
	const (
		rho = 100.0
		r0  = 1.0
		h   = 0.25
	)
	g := hemisphereGrid(r0, h)
	model := soil.NewUniform(1 / rho)
	box := Box{X0: -12, Y0: -12, X1: 12, Y1: 12, Depth: 12, H: h}
	s, err := New(g, model, box)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(1e-8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two controlled discretization effects shift the closed form
	// ρ/(2π·r0): the staircase marking enlarges the electrode by ≈ h/2,
	// and the V = 0 truncation at distance Rbox shunts ρ/(2π·Rbox).
	rEff := r0 + h/2
	rBox := 12.0
	want := rho / (2 * math.Pi) * (1/rEff - 1/rBox)
	rel := math.Abs(res.Req-want) / want
	if rel > 0.06 {
		t.Errorf("hemisphere Req = %.3f, corrected closed form %.3f (rel %.3f, %d nodes, %d iters)",
			res.Req, want, rel, res.Nodes, res.Iterations)
	}
	// And the uncorrected value brackets it from above.
	if res.Req > rho/(2*math.Pi*r0) {
		t.Errorf("Req %v above the infinite-domain closed form", res.Req)
	}
	// Potentials are bounded by the electrode value and positive inside.
	for _, v := range res.V {
		if v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("potential out of range: %v", v)
		}
	}
}

func TestTwoLayerDegenerateMatchesUniform(t *testing.T) {
	g := grid.SingleRod(0, 0, 0, 2, 0.0075)
	box := Box{X0: -8, Y0: -8, X1: 8, Y1: 8, Depth: 10, H: 0.5}
	solve := func(m soil.Model) float64 {
		s, err := New(g, m, box)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Solve(1e-9, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.Req
	}
	uni := solve(soil.NewUniform(0.01))
	tl := solve(soil.NewTwoLayer(0.01, 0.01, 1.0))
	if math.Abs(uni-tl) > 1e-9*(1+uni) {
		t.Errorf("degenerate two-layer %v vs uniform %v", tl, uni)
	}
}

// TestRodAgainstBEM compares the FD baseline with the BEM solver on a
// driven rod. The FD lattice cannot represent the 7.5 mm conductor radius —
// its Dirichlet line behaves like a conductor of effective radius ≈ 0.3·h.
// Comparing against the BEM solution *for that effective radius* (with the
// box-truncation shunt added back) isolates the discretization physics: the
// two methods then agree to a few percent, while the FD system is 3–4
// orders of magnitude larger. Both halves are the paper's §3 argument.
func TestRodAgainstBEM(t *testing.T) {
	const gamma = 0.01
	bemFor := func(radius float64) float64 {
		g := grid.SingleRod(0, 0, 0, 3, radius)
		m, err := grid.Discretize(g, grid.Linear, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.AnalyzeMeshCtx(context.Background(), m, soil.NewUniform(gamma), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Req
	}
	thinReq := bemFor(0.0075)
	g := grid.SingleRod(0, 0, 0, 3, 0.0075)

	for _, h := range []float64{1.0, 0.5} {
		box := Box{X0: -12, Y0: -12, X1: 12, Y1: 12, Depth: 14, H: h}
		s, err := New(g, soil.NewUniform(gamma), box)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Solve(1e-8, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The fat lattice electrode always reads low vs the thin wire.
		if r.Req > thinReq {
			t.Errorf("h=%v: FD Req %v above thin-wire BEM %v", h, r.Req, thinReq)
		}
		// Add back the truncation shunt and compare with the BEM at the
		// lattice's effective radius.
		corrected := r.Req + 1/(gamma*2*math.Pi*12)
		want := bemFor(0.3 * h)
		if rel := math.Abs(corrected-want) / want; rel > 0.12 {
			t.Errorf("h=%v: FD (corrected) %v vs BEM(r=0.3h) %v (rel %v)", h, corrected, want, rel)
		}
		// The FD system dwarfs the BEM system — the paper's point.
		mDoF := 16 // 15 elements + 1
		if r.Nodes < 300*mDoF {
			t.Errorf("unexpected: FD %d nodes not ≫ BEM %d DoF", r.Nodes, mDoF)
		}
	}
}

func TestValidation(t *testing.T) {
	g := grid.SingleRod(0, 0, 0, 2, 0.0075)
	model := soil.NewUniform(0.01)
	if _, err := New(g, model, Box{X0: 0, X1: -1, Y0: 0, Y1: 1, Depth: 1, H: 0.5}); err == nil {
		t.Error("inverted box accepted")
	}
	if _, err := New(g, model, Box{X0: -1, X1: 1, Y0: -1, Y1: 1, Depth: 1, H: 0}); err == nil {
		t.Error("zero spacing accepted")
	}
	// Electrode outside the box → nothing marked.
	far := grid.SingleRod(100, 100, 0, 2, 0.0075)
	if _, err := New(far, model, Box{X0: -5, X1: 5, Y0: -5, Y1: 5, Depth: 5, H: 0.5}); err == nil {
		t.Error("unmarked electrode accepted")
	}
}

var _ = bem.Options{} // the comparison tests exercise the BEM via core
