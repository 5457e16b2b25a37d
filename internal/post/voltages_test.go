package post

import (
	"context"
	"errors"
	"math"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/geom"
	"earthing/internal/grid"
)

// referenceVoltages is the single-pass extraction the field/reduction split
// replaced: sample V·gpr at stepRes over the mesh bounds plus 2 m, scan the
// scaled raster for the step maxima, and measure every sample's conductor
// distance inline. It is the oracle for bit-identity.
func referenceVoltages(t *testing.T, a *bem.Assembler, m *grid.Mesh, sigma []float64, gpr, stepRes float64) Voltages {
	if stepRes <= 0 {
		stepRes = 1
	}
	b := m.Bounds()
	x0, y0 := b.Min.X-2, b.Min.Y-2
	x1, y1 := b.Max.X+2, b.Max.Y+2
	nx := max(int((x1-x0)/stepRes)+1, 2)
	ny := max(int((y1-y0)/stepRes)+1, 2)
	r, err := SurfacePotentialRectCtx(context.Background(), a, sigma, gpr, x0, y0, x1, y1, SurfaceOptions{NX: nx, NY: ny})
	if err != nil {
		t.Fatal(err)
	}
	v := Voltages{GPR: gpr}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			val := r.At(i, j)
			if i+1 < nx {
				if d := math.Abs(val - r.At(i+1, j)); d > v.MaxStep {
					v.MaxStep = d
				}
			}
			if j+1 < ny {
				if d := math.Abs(val - r.At(i, j+1)); d > v.MaxStep {
					v.MaxStep = d
				}
			}
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			x, y := r.Pos(i, j)
			d := horizontalDistToMesh(m, x, y)
			touch := gpr - r.At(i, j)
			if d <= 1 && touch > v.MaxTouch {
				v.MaxTouch = touch
			}
			if d > stepRes/2 && d <= 1 && touch > v.MaxMesh {
				v.MaxMesh = touch
			}
		}
	}
	return v
}

// sameBits reports whether two Voltages agree bit for bit, field by field.
func sameBits(a, b Voltages) bool {
	return math.Float64bits(a.GPR) == math.Float64bits(b.GPR) &&
		math.Float64bits(a.MaxTouch) == math.Float64bits(b.MaxTouch) &&
		math.Float64bits(a.MaxStep) == math.Float64bits(b.MaxStep) &&
		math.Float64bits(a.MaxMesh) == math.Float64bits(b.MaxMesh)
}

// TestVoltageFieldUnitScaleMatches pins the contract groundd's post memo
// rests on: ComputeVoltagesCtx at a GPR equals, bit for bit, the reduction
// of a unit-GPR field at that GPR — and both equal the single-pass oracle
// over a raster sampled at that GPR.
func TestVoltageFieldUnitScaleMatches(t *testing.T) {
	res := solved(t)
	a := res.Assembler()
	ctx := context.Background()
	for _, stepRes := range []float64{0, 2, 0.7} {
		unit, err := VoltageFieldCtx(ctx, a, res.Mesh, res.Sigma, 1, stepRes, MaxVoltagePoints, SurfaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, gpr := range []float64{1, 10_000, 7321.123} {
			got, err := ComputeVoltagesCtx(ctx, a, res.Mesh, res.Sigma, gpr, stepRes, SurfaceOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			memo := unit.Voltages(gpr, gpr)
			want := referenceVoltages(t, a, res.Mesh, res.Sigma, gpr, stepRes)
			if !sameBits(got, want) {
				t.Errorf("stepRes %g, gpr %g: ComputeVoltagesCtx %+v, oracle %+v", stepRes, gpr, got, want)
			}
			if !sameBits(memo, got) {
				t.Errorf("stepRes %g, gpr %g: unit-field reduction %+v, ComputeVoltagesCtx %+v", stepRes, gpr, memo, got)
			}
			if got.MaxTouch <= 0 || got.MaxStep <= 0 {
				t.Errorf("stepRes %g, gpr %g: implausible voltages %+v", stepRes, gpr, got)
			}
		}
	}
}

// TestVoltageRasterCap: under a cap, a resolution that would sample more
// than the cap gets a *RasterSizeError before any allocation, while the
// largest admissible raster passes; with no cap only a raster too large to
// count or at a NaN resolution is refused. The plan carries the canonical resolution.
func TestVoltageRasterCap(t *testing.T) {
	lattice := geom.AABB{Min: geom.V(0, 0, -0.8), Max: geom.V(25, 25, -0.8)}
	km := geom.AABB{Max: geom.V(1000, 1000, 0)}
	for _, tc := range []struct {
		name    string
		b       geom.AABB
		stepRes float64
		capped  bool // admitted under MaxVoltagePoints
		free    bool // admitted with no cap
	}{
		{"default", lattice, 0, true, true},
		{"negative selects default", lattice, -3, true, true},
		{"fine but bounded", lattice, 0.06, true, true},
		{"millimetre", lattice, 0.001, false, true},
		{"denormal", lattice, 5e-324, false, false},
		{"NaN", lattice, math.NaN(), false, false},
		{"infinite resolution", lattice, math.Inf(1), true, true},
		{"kilometre site at 1 m", km, 1, false, true},
		{"kilometre strip at 1 m", geom.AABB{Max: geom.V(1000, 10, 0)}, 1, true, true},
	} {
		for _, limit := range []int{MaxVoltagePoints, 0} {
			want := tc.free
			if limit > 0 {
				want = tc.capped
			}
			p, err := PlanVoltageRaster(tc.b, tc.stepRes, limit)
			if !want {
				var rse *RasterSizeError
				if !errors.As(err, &rse) {
					t.Errorf("%s, limit %d: err %v, want *RasterSizeError", tc.name, limit, err)
				}
				continue
			}
			if err != nil || p.NX < 2 || p.NY < 2 || (limit > 0 && p.NX*p.NY > limit) {
				t.Errorf("%s, limit %d: %d × %d, %v; want an admissible raster", tc.name, limit, p.NX, p.NY, err)
			}
			if !(p.StepRes > 0) || (tc.stepRes > 0 && p.StepRes != tc.stepRes) {
				t.Errorf("%s, limit %d: canonical resolution %g", tc.name, limit, p.StepRes)
			}
		}
	}
	if p, _ := PlanVoltageRaster(km, 1, 0); p.NX != 1005 || p.NY != 1005 || p.X0 != -2 || p.Y1 != 1002 {
		t.Errorf("uncapped kilometre plan %+v, want 1005 × 1005 samples over [-2, 1002]²", p)
	}

	res := solved(t)
	_, err := VoltageFieldCtx(context.Background(), res.Assembler(), res.Mesh, res.Sigma, 1, 0.001, MaxVoltagePoints, SurfaceOptions{})
	var rse *RasterSizeError
	if !errors.As(err, &rse) || rse.Limit != MaxVoltagePoints {
		t.Fatalf("capped VoltageFieldCtx at 1 mm: err %v, want *RasterSizeError", err)
	}
}
