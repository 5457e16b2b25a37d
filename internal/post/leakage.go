package post

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"earthing/internal/bem"
	"earthing/internal/geom"
	"earthing/internal/grid"
)

// ElementLeakage summarises one element's share of the fault current
// (eq. 4.1's discretized leakage density σ(ξ) = Σ σᵢNᵢ(ξ)).
type ElementLeakage struct {
	Element  int
	Midpoint geom.Vec3
	Vertical bool
	// MeanDensity is the average leakage line density over the element in
	// A/m (at the caller's GPR scale).
	MeanDensity float64
	// Current is the element's total leaked current in A.
	Current float64
	// Share is Current / IΓ.
	Share float64
}

// LeakageReport aggregates the per-element leakage distribution.
type LeakageReport struct {
	Elements []ElementLeakage // sorted by descending current
	Total    float64          // IΓ in A
	// MaxDensity and MinDensity are the extreme element-mean densities.
	MaxDensity, MinDensity float64
	// RodShare is the fraction of IΓ leaked by vertical elements.
	RodShare float64
}

// ComputeLeakage builds the leakage distribution from the solved DoF vector
// scaled by scale (GPR·γ₁ for a core.Result's unit density, see
// core.Result.DensityScale). The classic design insight it surfaces: perimeter and
// corner conductors leak disproportionately, which is why meshes are graded
// toward the edges.
func ComputeLeakage(m *grid.Mesh, sigma []float64, scale float64) LeakageReport {
	rep := LeakageReport{MinDensity: math.Inf(1), MaxDensity: math.Inf(-1)}
	for e, el := range m.Elements {
		l := el.Seg.Length()
		var mean float64
		if m.Kind == grid.Linear {
			mean = scale * (sigma[el.DoF[0]] + sigma[el.DoF[1]]) / 2
		} else {
			mean = scale * sigma[el.DoF[0]]
		}
		cur := mean * l
		rep.Elements = append(rep.Elements, ElementLeakage{
			Element:     e,
			Midpoint:    el.Seg.Midpoint(),
			Vertical:    el.Seg.IsVertical(1e-9),
			MeanDensity: mean,
			Current:     cur,
		})
		rep.Total += cur
		rep.MaxDensity = math.Max(rep.MaxDensity, mean)
		rep.MinDensity = math.Min(rep.MinDensity, mean)
	}
	for i := range rep.Elements {
		if rep.Total != 0 {
			rep.Elements[i].Share = rep.Elements[i].Current / rep.Total
		}
		if rep.Elements[i].Vertical {
			rep.RodShare += rep.Elements[i].Share
		}
	}
	sort.Slice(rep.Elements, func(a, b int) bool {
		return rep.Elements[a].Current > rep.Elements[b].Current
	})
	return rep
}

// WriteLeakageCSV emits element,x,y,z,density,current,share rows.
func WriteLeakageCSV(w io.Writer, rep LeakageReport) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "element,x,y,z,density_A_per_m,current_A,share")
	for _, e := range rep.Elements {
		fmt.Fprintf(bw, "%d,%.4g,%.4g,%.4g,%.6g,%.6g,%.6g\n",
			e.Element, e.Midpoint.X, e.Midpoint.Y, e.Midpoint.Z,
			e.MeanDensity, e.Current, e.Share)
	}
	return bw.Flush()
}

// WriteLeakageSummary prints the top-n leaking elements and aggregate stats.
func WriteLeakageSummary(w io.Writer, rep LeakageReport, n int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "total leaked current: %.6g A (rods: %.1f%%)\n", rep.Total, 100*rep.RodShare)
	fmt.Fprintf(bw, "leakage density range: %.4g .. %.4g A/m (ratio %.2f)\n",
		rep.MinDensity, rep.MaxDensity, rep.MaxDensity/math.Max(rep.MinDensity, 1e-300))
	if n > len(rep.Elements) {
		n = len(rep.Elements)
	}
	fmt.Fprintf(bw, "top %d elements by leaked current:\n", n)
	for _, e := range rep.Elements[:n] {
		kind := "grid"
		if e.Vertical {
			kind = "rod"
		}
		fmt.Fprintf(bw, "  #%-4d %-4s at (%6.1f, %6.1f, %4.2f): %8.4g A (%5.2f%%)\n",
			e.Element, kind, e.Midpoint.X, e.Midpoint.Y, e.Midpoint.Z,
			e.Current, 100*e.Share)
	}
	return bw.Flush()
}

// EFieldRasterCtx samples the horizontal surface electric-field magnitude
// |E_h|·scale on a rectangle (V/m at the caller's GPR scale when scale is
// the GPR). Multiplied by the 1 m step distance this is the step-voltage
// map, the gradient counterpart of the potential rasters of Figures
// 5.2/5.4; its maxima sit at the grid edges and corners where step hazards
// concentrate. Cancellation is observed at raster-point boundaries; on
// cancellation the partial raster is discarded and ctx.Err() returned.
func EFieldRasterCtx(ctx context.Context, a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1 float64, opt SurfaceOptions) (*Raster, error) {
	opt = opt.WithDefaults()
	r, pts := surfaceRaster(x0, y0, x1, y1, opt)
	grads := make([]geom.Vec3, len(pts))
	if err := a.Evaluator().GradBatchCtx(ctx, pts, sigma, grads, batchOpt(opt)); err != nil {
		return nil, err
	}
	// E = −∇V, so |E_h| = |∇V_h| — the sign never survives the magnitude.
	for i, g := range grads {
		r.V[i] = scale * math.Hypot(g.X, g.Y)
	}
	return r, nil
}

// EFieldSurfaceCtx is EFieldRasterCtx over the mesh bounds plus opt.Margin —
// the step-voltage map companion of SurfacePotentialCtx.
func EFieldSurfaceCtx(ctx context.Context, a *bem.Assembler, mesh interface{ Bounds() geom.AABB }, sigma []float64, scale float64, opt SurfaceOptions) (*Raster, error) {
	opt = opt.WithDefaults()
	x0, y0, x1, y1 := footprint(mesh, opt)
	return EFieldRasterCtx(ctx, a, sigma, scale, x0, y0, x1, y1, opt)
}

// StepProfileByField samples the surface electric-field magnitude along a
// line at n ≥ 2 points and converts it to the per-metre step voltage
// |E|·1 m — the gradient counterpart to ProfilePotential's finite
// differences. On cancellation ctx.Err() is returned.
func StepProfileByField(ctx context.Context, a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1 float64, n int) (s, step []float64, err error) {
	s, pts, err := linePoints(x0, y0, x1, y1, n)
	if err != nil {
		return nil, nil, err
	}
	grads := make([]geom.Vec3, n)
	if err := a.Evaluator().GradBatchCtx(ctx, pts, sigma, grads, bem.BatchOptions{}); err != nil {
		return nil, nil, err
	}
	step = make([]float64, n)
	for i, g := range grads {
		// Horizontal field only: the vertical component vanishes on the
		// surface (air is insulating) and a step spans 1 m horizontally.
		step[i] = scale * math.Hypot(g.X, g.Y)
	}
	return s, step, nil
}
