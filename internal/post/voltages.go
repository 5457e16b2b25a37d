package post

import (
	"context"
	"fmt"
	"math"

	"earthing/internal/bem"
	"earthing/internal/geom"
	"earthing/internal/grid"
)

// Voltages aggregates the safety parameters of §1/§5.2: the voltages a
// person could bridge during a fault.
type Voltages struct {
	// GPR is the ground potential rise (volts).
	GPR float64
	// MaxTouch is the largest GPR − V(surface) over points within reach
	// (1 m) of an electrode — the touch voltage.
	MaxTouch float64
	// MaxStep is the largest |V(p) − V(q)| between surface points 1 m apart
	// found on the sampling raster — the step voltage.
	MaxStep float64
	// MaxMesh is the largest GPR − V(surface) at mesh-cell centers — the
	// mesh voltage (worst touch voltage inside the grid).
	MaxMesh float64
}

// MaxVoltagePoints is the voltage-raster cap groundd applies at its request
// boundary: the 512 × 512 points it allows a /v1/raster request. The raster
// size follows from the grid extent and the step resolution, so without a
// cap a fine resolution over a large grid asks for gigabytes of points
// before any deadline can fire. Library callers pass no cap.
const MaxVoltagePoints = 512 * 512

// RasterSizeError reports a voltage raster over its point cap, one too
// large to count, or one at a NaN resolution, which has no size.
type RasterSizeError struct {
	// StepRes is the resolution asked for (metres, after the 1 m default).
	StepRes float64
	// Points is the sample count it implies (NaN for a NaN resolution).
	Points float64
	// Limit is the cap in force (≤ 0 for none).
	Limit int
}

func (e *RasterSizeError) Error() string {
	msg := fmt.Sprintf("post: voltage raster at %g m resolution needs %g points", e.StepRes, e.Points)
	if e.Limit > 0 {
		msg += fmt.Sprintf(", over the limit of %d", e.Limit)
	}
	return msg
}

// voltageMargin extends the voltage raster beyond the grid bounds (metres).
const voltageMargin = 2.0

// reach is the horizontal distance (metres) within which a person touching
// a grounded structure stands: the touch-voltage predicate.
const reach = 1.0

// VoltageSampling is the raster the voltage extraction samples: the grid
// bounds plus a 2 m margin, at the canonical resolution.
type VoltageSampling struct {
	// StepRes is the sample spacing (metres, after the 1 m default).
	StepRes float64
	// X0, Y0, X1, Y1 are the raster corners.
	X0, Y0, X1, Y1 float64
	// NX, NY are the sample counts per axis (each ≥ 2).
	NX, NY int
}

// PlanVoltageRaster returns the raster the voltage extraction samples over
// grid bounds b at stepRes metres (≤ 0 selects 1 m). With maxPoints > 0 a
// raster over maxPoints samples is refused with a *RasterSizeError before
// anything is allocated; maxPoints ≤ 0 leaves the size bounded only by what
// an int can count. A NaN resolution is always refused.
func PlanVoltageRaster(b geom.AABB, stepRes float64, maxPoints int) (VoltageSampling, error) {
	if stepRes <= 0 {
		stepRes = 1
	}
	p := VoltageSampling{
		StepRes: stepRes,
		X0:      b.Min.X - voltageMargin, Y0: b.Min.Y - voltageMargin,
		X1: b.Max.X + voltageMargin, Y1: b.Max.Y + voltageMargin,
	}
	// Counted in floating point, so a tiny or non-finite resolution cannot
	// overflow the int conversion; NaN fails the comparison below.
	fx := math.Max(math.Trunc((p.X1-p.X0)/stepRes)+1, 2)
	fy := math.Max(math.Trunc((p.Y1-p.Y0)/stepRes)+1, 2)
	limit := float64(math.MaxInt)
	if maxPoints > 0 {
		limit = float64(maxPoints)
	}
	if !(fx*fy <= limit) {
		return p, &RasterSizeError{StepRes: stepRes, Points: fx * fy, Limit: maxPoints}
	}
	p.NX, p.NY = int(fx), int(fy)
	return p, nil
}

// Conductor-proximity classes of a voltage-raster sample, by its horizontal
// distance d to the nearest element: touch points lie within reach, mesh
// points within reach but more than half a sampling step away (cell centers).
const (
	beyondReach uint8 = iota
	touchPoint
	meshPoint
)

// VoltageField is the sampled half of the touch/step/mesh extraction: the
// surface potential raster at stepRes plus every sample's conductor-proximity
// class. It depends on the solved density and stepRes alone, so a field
// built at unit GPR serves every fault level through Voltages.
type VoltageField struct {
	// Raster is the surface potential at the scale the field was built at.
	Raster *Raster
	class  []uint8
}

// VoltageFieldCtx samples the surface potential V·scale on the raster
// PlanVoltageRaster lays over the mesh bounds at stepRes metres, and
// classifies every sample by its horizontal distance to the mesh elements.
// Only the Workers and Schedule fields of opt are consulted. maxPoints > 0
// caps the raster (see PlanVoltageRaster): a larger one is refused with a
// *RasterSizeError before anything is allocated. On cancellation ctx.Err()
// is returned.
func VoltageFieldCtx(ctx context.Context, a *bem.Assembler, m *grid.Mesh, sigma []float64, scale, stepRes float64, maxPoints int, opt SurfaceOptions) (*VoltageField, error) {
	p, err := PlanVoltageRaster(m.Bounds(), stepRes, maxPoints)
	if err != nil {
		return nil, err
	}
	r, err := SurfacePotentialRectCtx(ctx, a, sigma, scale, p.X0, p.Y0, p.X1, p.Y1,
		SurfaceOptions{NX: p.NX, NY: p.NY, Workers: opt.Workers, Schedule: opt.Schedule})
	if err != nil {
		return nil, err
	}
	f := &VoltageField{Raster: r, class: make([]uint8, len(r.V))}
	for j := 0; j < p.NY; j++ {
		for i := 0; i < p.NX; i++ {
			x, y := r.Pos(i, j)
			d := horizontalDistToMesh(m, x, y)
			switch {
			case d > p.StepRes/2 && d <= reach:
				f.class[j*p.NX+i] = meshPoint
			case d <= reach:
				f.class[j*p.NX+i] = touchPoint
			}
		}
	}
	return f, nil
}

// Voltages reduces the field to touch, step and mesh voltages at gpr,
// reading every sample as scale·V[i]. A field built at gpr reduces with
// scale 1; one built at unit GPR reduces with scale = gpr and reproduces the
// former bit for bit, since 1·x = x and gpr·V[i] is the very product the
// field sweep takes at scale gpr.
func (f *VoltageField) Voltages(gpr, scale float64) Voltages {
	r := f.Raster
	nx, ny := r.NX, r.NY
	v := Voltages{GPR: gpr}
	// Step voltage: adjacent raster samples stepRes apart (axis-aligned
	// pairs; the 1 m IEEE step distance when stepRes = 1).
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			k := j*nx + i
			val := scale * r.V[k]
			if i+1 < nx {
				if d := math.Abs(val - scale*r.V[k+1]); d > v.MaxStep {
					v.MaxStep = d
				}
			}
			if j+1 < ny {
				if d := math.Abs(val - scale*r.V[k+nx]); d > v.MaxStep {
					v.MaxStep = d
				}
			}
		}
	}
	// Touch voltage: GPR − V at surface points within reach of a conductor;
	// mesh voltage: the same over the cell-center subset.
	for k, c := range f.class {
		if c == beyondReach {
			continue
		}
		touch := gpr - scale*r.V[k]
		if touch > v.MaxTouch {
			v.MaxTouch = touch
		}
		if c == meshPoint && touch > v.MaxMesh {
			v.MaxMesh = touch
		}
	}
	return v
}

// Bytes reports the resident size of the field: the raster plus one class
// byte per sample.
func (f *VoltageField) Bytes() int64 { return f.Raster.Bytes() + int64(len(f.class)) }

// ComputeVoltagesCtx estimates touch, step and mesh voltages from a solved
// analysis by sampling the surface potential on a raster at stepRes metres
// resolution (default 1 m when ≤ 0), with cooperative cancellation of the
// raster evaluation; only the Workers and Schedule fields of opt are
// consulted. The electrode proximity predicate uses the horizontal distance
// to the mesh elements. It builds the field at scale gpr, with no cap on the
// raster size, and reduces it at scale 1. A NaN stepRes returns a
// *RasterSizeError, a cancellation the zero Voltages and ctx.Err().
func ComputeVoltagesCtx(ctx context.Context, a *bem.Assembler, m *grid.Mesh, sigma []float64, gpr float64, stepRes float64, opt SurfaceOptions) (Voltages, error) {
	f, err := VoltageFieldCtx(ctx, a, m, sigma, gpr, stepRes, 0, opt)
	if err != nil {
		return Voltages{}, err
	}
	return f.Voltages(gpr, 1), nil
}

// horizontalDistToMesh returns the distance from surface point (x, y) to
// the nearest element axis, measured in the horizontal plane.
func horizontalDistToMesh(m *grid.Mesh, x, y float64) float64 {
	best := math.Inf(1)
	p := geom.V(x, y, 0)
	for _, el := range m.Elements {
		// Project the element to the surface plane before measuring.
		s := geom.Seg(el.Seg.A.WithZ(0), el.Seg.B.WithZ(0))
		if d := s.DistToPoint(p); d < best {
			best = d
		}
	}
	return best
}
