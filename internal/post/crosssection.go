package post

import (
	"context"

	"earthing/internal/bem"
	"earthing/internal/geom"
)

// CrossSection samples the potential on a vertical plane: the section runs
// from (x0, y0) to (x1, y1) on the surface and extends from depth 0 down to
// maxDepth. The result reuses Raster with X = arc length along the section
// and Y = depth (positive down, row 0 at the surface).
//
// Vertical sections make the layered-soil physics visible: equipotentials
// refract at the layer interfaces (the flux continuity condition of
// eq. 2.3), which surface maps cannot show. Points at different depths hit
// different observation layers; the evaluator builds one flattened plan per
// layer on first touch. Cancellation is observed at sample-point
// boundaries; on cancellation the partial raster is discarded and ctx.Err()
// returned.
func CrossSection(ctx context.Context, a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1, maxDepth float64, opt SurfaceOptions) (*Raster, error) {
	opt = opt.WithDefaults()
	length := geom.V(x1-x0, y1-y0, 0).Norm()
	r := &Raster{
		X0: 0, Y0: 0,
		DX: length / float64(opt.NX-1),
		DY: maxDepth / float64(opt.NY-1),
		NX: opt.NX, NY: opt.NY,
		V: make([]float64, opt.NX*opt.NY),
	}
	pts := make([]geom.Vec3, opt.NX*opt.NY)
	for j := 0; j < opt.NY; j++ {
		depth := r.Y0 + float64(j)*r.DY
		for i := 0; i < opt.NX; i++ {
			t := float64(i) / float64(opt.NX-1)
			pts[j*opt.NX+i] = geom.V(x0+t*(x1-x0), y0+t*(y1-y0), depth)
		}
	}
	if err := a.Evaluator().PotentialBatchCtx(ctx, pts, sigma, scale, r.V, batchOpt(opt)); err != nil {
		return nil, err
	}
	return r, nil
}
