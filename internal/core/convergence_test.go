package core

import (
	"context"
	"math"
	"testing"

	"earthing/internal/grid"
	"earthing/internal/soil"
)

// TestReqConvergesUnderRefinement refines a small grid and checks Req
// settles: successive refinements must change the result less and less,
// addressing the classical failure mode the paper cites ("unrealistic
// results when segmentation of conductors was increased" [3]) that the
// Galerkin formulation avoids [6].
func TestReqConvergesUnderRefinement(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	var reqs []float64
	for _, ml := range []float64{10, 5, 2.5, 1.25} {
		res, err := AnalyzeCtx(context.Background(), g, model, Config{MaxElemLen: ml})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, res.Req)
	}
	d1 := math.Abs(reqs[1] - reqs[0])
	d2 := math.Abs(reqs[2] - reqs[1])
	d3 := math.Abs(reqs[3] - reqs[2])
	if !(d3 < d2 && d2 < d1) {
		t.Errorf("refinement not converging: Req = %v (deltas %v, %v, %v)", reqs, d1, d2, d3)
	}
	// The finest two agree within a fraction of a percent.
	if d3/reqs[3] > 0.003 {
		t.Errorf("residual refinement change %.4f%%", 100*d3/reqs[3])
	}
}

// TestRefinementStaysMonotoneDecreasing: adding degrees of freedom enlarges
// the trial space of the Galerkin method, so the computed resistance
// decreases monotonically toward the true value.
func TestRefinementStaysMonotoneDecreasing(t *testing.T) {
	g := grid.HorizontalWire(0, 0, 0.8, 20, 0.005)
	model := soil.NewUniform(0.02)
	prev := math.Inf(1)
	for _, ml := range []float64{20, 10, 5, 2.5, 1.25} {
		res, err := AnalyzeCtx(context.Background(), g, model, Config{MaxElemLen: ml})
		if err != nil {
			t.Fatal(err)
		}
		if res.Req > prev*(1+1e-9) {
			t.Errorf("Req increased under refinement: %v -> %v (maxlen %v)", prev, res.Req, ml)
		}
		prev = res.Req
	}
}

// TestDepthReducesResistance: burying the same grid deeper lowers Req and
// the surface potentials (classic design behaviour).
func TestDepthReducesResistance(t *testing.T) {
	model := soil.NewUniform(0.02)
	shallow, err := AnalyzeCtx(context.Background(), grid.RectMesh(0, 0, 20, 20, 3, 3, 0.3, 0.006), model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := AnalyzeCtx(context.Background(), grid.RectMesh(0, 0, 20, 20, 3, 3, 2.0, 0.006), model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if deep.Req >= shallow.Req {
		t.Errorf("deeper grid did not reduce Req: %v vs %v", deep.Req, shallow.Req)
	}
}

// TestResistiveTopLayerRaisesReq mirrors the paper's Barberá observation:
// with the grid in a resistive top layer over conductive subsoil, Req
// exceeds the uniform-subsoil value; a conductive top layer lowers it.
func TestResistiveTopLayerRaisesReq(t *testing.T) {
	g := grid.RectMesh(0, 0, 30, 30, 4, 4, 0.8, 0.006)
	uni, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.016), Config{})
	if err != nil {
		t.Fatal(err)
	}
	resTop, err := AnalyzeCtx(context.Background(), g, soil.NewTwoLayer(0.005, 0.016, 1.0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	condTop, err := AnalyzeCtx(context.Background(), g, soil.NewTwoLayer(0.05, 0.016, 1.0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !(resTop.Req > uni.Req && condTop.Req < uni.Req) {
		t.Errorf("layer ordering wrong: resistive-top %v, uniform %v, conductive-top %v",
			resTop.Req, uni.Req, condTop.Req)
	}
}

// TestLargerGridLowersReq: resistance scales roughly with 1/√area.
func TestLargerGridLowersReq(t *testing.T) {
	model := soil.NewUniform(0.02)
	small, err := AnalyzeCtx(context.Background(), grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006), model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := AnalyzeCtx(context.Background(), grid.RectMesh(0, 0, 80, 80, 9, 9, 0.8, 0.006), model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := small.Req / large.Req
	// Area ratio 16 → √16 = 4; with the denser lattice the drop is larger.
	if ratio < 2.5 {
		t.Errorf("Req ratio %v too small for a 16x area increase", ratio)
	}
}
