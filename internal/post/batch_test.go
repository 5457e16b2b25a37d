package post

import (
	"context"
	"math"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/sched"
)

// TestProfilePotentialOptMatchesSerial checks the parallelized profile path
// against direct per-point evaluation, bit-identical across worker counts
// (same per-point arithmetic regardless of schedule), and that a profile of
// fewer than two points is an error, not a panic.
func TestProfilePotentialOptMatchesSerial(t *testing.T) {
	res := solved(t)
	a := res.Assembler()
	ctx := context.Background()
	sSeq, vSeq, err := ProfilePotential(ctx, a, res.Sigma, res.GPR, -5, 3, 25, 17, 40,
		SurfaceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sPar, vPar, err := ProfilePotential(ctx, a, res.Sigma, res.GPR, -5, 3, 25, 17, 40,
		SurfaceOptions{Workers: 4, Schedule: sched.Schedule{Kind: sched.Static}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ProfilePotential(ctx, a, res.Sigma, res.GPR, 0, 0, 1, 1, 1, SurfaceOptions{}); err == nil {
		t.Error("one-point profile accepted")
	}
	for i := range vSeq {
		if sSeq[i] != sPar[i] || vSeq[i] != vPar[i] {
			t.Fatalf("point %d: parallel (%v, %v) vs serial (%v, %v)",
				i, sPar[i], vPar[i], sSeq[i], vSeq[i])
		}
	}
	// And against direct per-point evaluation.
	for i, x := range []float64{-5, 25} {
		y := []float64{3, 17}[i]
		direct := res.GPR * a.Evaluator().PotentialAt(geom.V(x, y, 0), res.Sigma)
		got := vSeq[i*(len(vSeq)-1)]
		if math.Abs(got-direct) > 1e-9*(1+math.Abs(direct)) {
			t.Errorf("endpoint %d: %v vs direct %v", i, got, direct)
		}
	}
}

// TestEFieldSurfaceMatchesRect checks the bounds+margin wrapper against an
// explicit-rectangle call and direct gradient evaluation.
func TestEFieldSurfaceMatchesRect(t *testing.T) {
	res := solved(t)
	a := res.Assembler()
	opt := SurfaceOptions{NX: 9, NY: 9, Margin: 4}
	ctx := context.Background()
	r, err := EFieldSurfaceCtx(ctx, a, res.Mesh, res.Sigma, res.GPR, opt)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Mesh.Bounds()
	want, err := EFieldRasterCtx(ctx, a, res.Sigma, res.GPR,
		b.Min.X-4, b.Min.Y-4, b.Max.X+4, b.Max.Y+4, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.V {
		if r.V[i] != want.V[i] {
			t.Fatalf("cell %d: surface %v vs rect %v", i, r.V[i], want.V[i])
		}
	}
	x, y := r.Pos(2, 6)
	e := a.Evaluator().ElectricField(geom.V(x, y, 0), res.Sigma)
	direct := res.GPR * math.Hypot(e.X, e.Y)
	if math.Abs(r.At(2, 6)-direct) > 1e-9*(1+direct) {
		t.Errorf("raster %v vs direct |E_h| %v", r.At(2, 6), direct)
	}
}

// TestComputeVoltagesOptMatchesDefault checks the knobbed voltage extraction
// reproduces the default path exactly for any worker count.
func TestComputeVoltagesOptMatchesDefault(t *testing.T) {
	res := solved(t)
	a := res.Assembler()
	want, err := ComputeVoltagesCtx(context.Background(), a, res.Mesh, res.Sigma, res.GPR, 2, SurfaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeVoltagesCtx(context.Background(), a, res.Mesh, res.Sigma, res.GPR, 2,
		SurfaceOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("ComputeVoltagesCtx at 3 workers %+v differs from the default %+v", got, want)
	}
}
