package post

import (
	"context"
	"math"
	"strings"
	"testing"

	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

func TestComputeLeakage(t *testing.T) {
	res := solved(t)
	rep := ComputeLeakage(res.Mesh, res.Sigma, res.DensityScale())
	if len(rep.Elements) != len(res.Mesh.Elements) {
		t.Fatal("element count mismatch")
	}
	// Total must equal the engine's current.
	if math.Abs(rep.Total-res.Current) > 1e-6*(1+res.Current) {
		t.Errorf("leakage total %v vs engine current %v", rep.Total, res.Current)
	}
	// Shares sum to 1 and are sorted descending.
	var sum float64
	for i, e := range rep.Elements {
		sum += e.Share
		if i > 0 && e.Current > rep.Elements[i-1].Current+1e-12 {
			t.Fatal("not sorted by current")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if rep.MaxDensity < rep.MinDensity || rep.MinDensity <= 0 {
		t.Errorf("density range %v..%v", rep.MinDensity, rep.MaxDensity)
	}
}

// TestEdgeLeaksMoreThanCenter verifies the classical design fact surfaced by
// the report: perimeter conductors carry a higher leakage density than
// interior ones.
func TestEdgeLeaksMoreThanCenter(t *testing.T) {
	g := grid.RectMesh(0, 0, 40, 40, 5, 5, 0.8, 0.006)
	res, err := core.AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), core.Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	rep := ComputeLeakage(res.Mesh, res.Sigma, res.DensityScale())
	var corner, center float64
	for _, e := range rep.Elements {
		m := e.Midpoint
		if m.Y == 0 && m.X < 10 { // first span of the bottom edge
			corner = math.Max(corner, e.MeanDensity)
		}
		if math.Abs(m.X-20) < 6 && math.Abs(m.Y-20) < 6 {
			center = math.Max(center, e.MeanDensity)
		}
	}
	if corner <= center {
		t.Errorf("corner density %v not above center %v", corner, center)
	}
}

func TestRodShare(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	g.AddRod(0, 0, 0.8, 3, 0.007)
	g.AddRod(20, 20, 0.8, 3, 0.007)
	res, err := core.AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), core.Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	rep := ComputeLeakage(res.Mesh, res.Sigma, res.DensityScale())
	if rep.RodShare <= 0 || rep.RodShare >= 1 {
		t.Errorf("rod share = %v", rep.RodShare)
	}
}

func TestLeakageWriters(t *testing.T) {
	res := solved(t)
	rep := ComputeLeakage(res.Mesh, res.Sigma, res.DensityScale())
	var csv strings.Builder
	if err := WriteLeakageCSV(&csv, rep); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(rep.Elements)+1 {
		t.Errorf("csv rows = %d", lines)
	}
	var sum strings.Builder
	if err := WriteLeakageSummary(&sum, rep, 5); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"total leaked current", "top 5 elements"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}
	// n larger than the element count is clamped.
	var big strings.Builder
	if err := WriteLeakageSummary(&big, rep, 10_000); err != nil {
		t.Fatal(err)
	}
}

func TestEFieldRaster(t *testing.T) {
	res := solved(t)
	ctx := context.Background()
	r, err := EFieldRasterCtx(ctx, res.Assembler(), res.Sigma, res.GPR, -5, -5, 25, 25, SurfaceOptions{NX: 16, NY: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.V) != 256 {
		t.Fatal("raster size wrong")
	}
	min, max := r.MinMax()
	if min < 0 || !(max > min) {
		t.Errorf("field range %v..%v", min, max)
	}
	// The field maximum sits near the grid edge, not at its center: locate
	// the max and check it is closer to the perimeter (grid spans 0..20).
	var bi, bj int
	best := math.Inf(-1)
	for j := 0; j < r.NY; j++ {
		for i := 0; i < r.NX; i++ {
			if v := r.At(i, j); v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	x, y := r.Pos(bi, bj)
	distToCenter := math.Hypot(x-10, y-10)
	if distToCenter < 5 {
		t.Errorf("field max at (%v,%v), suspiciously central", x, y)
	}
	// Parallel evaluation is deterministic.
	r2, err := EFieldRasterCtx(ctx, res.Assembler(), res.Sigma, res.GPR, -5, -5, 25, 25, SurfaceOptions{NX: 16, NY: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.V {
		if r.V[i] != r2.V[i] {
			t.Fatal("parallel raster differs")
		}
	}
}

func TestStepProfileByField(t *testing.T) {
	res := solved(t)
	ctx := context.Background()
	s, step, err := StepProfileByField(ctx, res.Assembler(), res.Sigma, res.GPR, 10, 10, 80, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 30 || len(step) != 30 {
		t.Fatal("profile length wrong")
	}
	for i, v := range step {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("step[%d] = %v", i, v)
		}
	}
	// Compare the gradient-based step against the potential-difference step
	// at a mid-profile point: |V(s) − V(s+1m)| ≈ |E|·1m within a few %.
	sv, vv, err := ProfilePotential(ctx, res.Assembler(), res.Sigma, res.GPR, 10, 10, 80, 10, 71, SurfaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// sv spacing is 1 m exactly (70 m / 70 intervals).
	if math.Abs(sv[1]-sv[0]-1) > 1e-9 {
		t.Fatalf("profile spacing %v", sv[1]-sv[0])
	}
	// Point s = 30 m → index 30 in vv; field profile index at s=30:
	// 30/(70/29) ≈ 12.43 — recompute the field directly instead.
	_, fieldAt, err := StepProfileByField(ctx, res.Assembler(), res.Sigma, res.GPR, 40, 10, 41, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	dv := math.Abs(vv[30] - vv[31])
	if rel := math.Abs(fieldAt[0]-dv) / (1 + dv); rel > 0.05 {
		t.Errorf("gradient step %v vs potential-difference step %v", fieldAt[0], dv)
	}
}
