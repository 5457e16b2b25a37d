// Package post computes the design quantities derived from a solved
// grounding analysis: earth-surface potential rasters (the contour plots of
// Figures 5.2 and 5.4), touch/step/mesh voltages, and equipotential contour
// extraction, with ASCII/CSV/SVG emitters.
//
// Computing potentials at many surface points costs O(M·p) kernel series per
// point (§4.3) — the paper's second massively parallel stage — so rasters
// are evaluated in parallel with the same scheduling substrate as matrix
// generation.
package post

import (
	"context"
	"fmt"
	"math"

	"earthing/internal/bem"
	"earthing/internal/geom"
	"earthing/internal/sched"
)

// Raster is a rectangular sample of a scalar field on the earth surface.
type Raster struct {
	X0, Y0 float64 // lower-left corner
	DX, DY float64 // cell size
	NX, NY int
	// V[j*NX+i] is the value at (X0 + i·DX, Y0 + j·DY).
	V []float64
}

// At returns the value at cell (i, j).
func (r *Raster) At(i, j int) float64 { return r.V[j*r.NX+i] }

// Pos returns the surface position of cell (i, j).
func (r *Raster) Pos(i, j int) (x, y float64) {
	return r.X0 + float64(i)*r.DX, r.Y0 + float64(j)*r.DY
}

// Bytes reports the resident size of the raster: its samples plus the
// fixed-size header.
func (r *Raster) Bytes() int64 { return 8*int64(len(r.V)) + rasterHeaderBytes }

// rasterHeaderBytes is the size of a Raster value: six words of geometry and
// a slice header.
const rasterHeaderBytes = 72

// MinMax returns the value range.
func (r *Raster) MinMax() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range r.V {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	return min, max
}

// SurfaceOptions configures a surface potential evaluation.
type SurfaceOptions struct {
	// NX, NY are the raster dimensions (default 64 × 64).
	NX, NY int
	// Margin extends the raster beyond the grid bounding box by this many
	// metres on every side (default 15).
	Margin float64
	// Workers and Schedule configure the parallel evaluation (defaults:
	// GOMAXPROCS and dynamic,1).
	Workers  int
	Schedule sched.Schedule
}

// WithDefaults returns o with every zero field set to its documented
// default; two options that agree after WithDefaults sample the same raster.
func (o SurfaceOptions) WithDefaults() SurfaceOptions {
	if o.NX <= 0 {
		o.NX = 64
	}
	if o.NY <= 0 {
		o.NY = 64
	}
	if o.Margin == 0 {
		o.Margin = 15
	}
	if o.Schedule.IsZero() {
		o.Schedule = sched.Schedule{Kind: sched.Dynamic, Chunk: 1}
	}
	return o
}

// SurfacePotentialCtx samples V(x, y, z=0)·scale over a rectangle covering
// the mesh bounds plus margin, distributing raster points over workers.
// sigma is the solved DoF vector (per unit GPR); scale is typically the GPR.
// Cancellation is observed at raster-point boundaries; on cancellation the
// partial raster is discarded and ctx.Err() returned.
func SurfacePotentialCtx(ctx context.Context, a *bem.Assembler, mesh interface{ Bounds() geom.AABB }, sigma []float64, scale float64, opt SurfaceOptions) (*Raster, error) {
	opt = opt.WithDefaults()
	x0, y0, x1, y1 := footprint(mesh, opt)
	return SurfacePotentialRectCtx(ctx, a, sigma, scale, x0, y0, x1, y1, opt)
}

// SurfacePotentialRectCtx samples V·scale on an explicit rectangle
// [x0, x1] × [y0, y1] at z = 0 through the batched field evaluator, with
// the cancellation semantics of SurfacePotentialCtx.
func SurfacePotentialRectCtx(ctx context.Context, a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1 float64, opt SurfaceOptions) (*Raster, error) {
	opt = opt.WithDefaults()
	r, pts := surfaceRaster(x0, y0, x1, y1, opt)
	if err := a.Evaluator().PotentialBatchCtx(ctx, pts, sigma, scale, r.V, batchOpt(opt)); err != nil {
		return nil, err
	}
	return r, nil
}

// footprint returns the rectangle covering the mesh bounds plus opt.Margin.
func footprint(mesh interface{ Bounds() geom.AABB }, opt SurfaceOptions) (x0, y0, x1, y1 float64) {
	b := mesh.Bounds()
	return b.Min.X - opt.Margin, b.Min.Y - opt.Margin, b.Max.X + opt.Margin, b.Max.Y + opt.Margin
}

// surfaceRaster allocates the opt.NX × opt.NY raster spanning
// [x0, x1] × [y0, y1] and returns its surface (z = 0) sample points in
// raster order — the point set every surface raster, potential or field,
// is evaluated on. opt must already carry its defaults.
func surfaceRaster(x0, y0, x1, y1 float64, opt SurfaceOptions) (*Raster, []geom.Vec3) {
	r := &Raster{
		X0: x0, Y0: y0,
		DX: (x1 - x0) / float64(opt.NX-1),
		DY: (y1 - y0) / float64(opt.NY-1),
		NX: opt.NX, NY: opt.NY,
		V: make([]float64, opt.NX*opt.NY),
	}
	pts := make([]geom.Vec3, opt.NX*opt.NY)
	for j := 0; j < opt.NY; j++ {
		y := r.Y0 + float64(j)*r.DY
		for i := 0; i < opt.NX; i++ {
			pts[j*opt.NX+i] = geom.V(r.X0+float64(i)*r.DX, y, 0)
		}
	}
	return r, pts
}

// batchOpt forwards the worker/schedule knobs of a SurfaceOptions to the
// evaluator's batch loop.
func batchOpt(opt SurfaceOptions) bem.BatchOptions {
	return bem.BatchOptions{Workers: opt.Workers, Schedule: opt.Schedule}
}

// ProfilePotential samples V·scale along the straight surface segment from
// (x0, y0) to (x1, y1) at n ≥ 2 evenly spaced points, returning the arc
// coordinates and values — the raw material of step-voltage profiles.
// Points are evaluated in parallel; only the Workers and Schedule fields of
// opt are consulted. On cancellation ctx.Err() is returned.
func ProfilePotential(ctx context.Context, a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1 float64, n int, opt SurfaceOptions) (s, v []float64, err error) {
	s, pts, err := linePoints(x0, y0, x1, y1, n)
	if err != nil {
		return nil, nil, err
	}
	v = make([]float64, n)
	if err := a.Evaluator().PotentialBatchCtx(ctx, pts, sigma, scale, v, batchOpt(opt.WithDefaults())); err != nil {
		return nil, nil, err
	}
	return s, v, nil
}

// linePoints returns n evenly spaced surface points on the segment from
// (x0, y0) to (x1, y1) and their arc coordinates — the point set both line
// profiles (potential and field) are evaluated on.
func linePoints(x0, y0, x1, y1 float64, n int) (s []float64, pts []geom.Vec3, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("post: profile needs ≥ 2 points, got %d", n)
	}
	s = make([]float64, n)
	pts = make([]geom.Vec3, n)
	length := math.Hypot(x1-x0, y1-y0)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		s[i] = t * length
		pts[i] = geom.V(x0+t*(x1-x0), y0+t*(y1-y0), 0)
	}
	return s, pts, nil
}
