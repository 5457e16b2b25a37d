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

// SurfacePotential samples V(x, y, z=0)·scale over a rectangle covering the
// mesh bounds plus margin, distributing raster rows over workers. sigma is
// the solved DoF vector (per unit GPR); scale is typically the GPR.
func SurfacePotential(a *bem.Assembler, mesh interface{ Bounds() geom.AABB }, sigma []float64, scale float64, opt SurfaceOptions) *Raster {
	//lint:ignore errdrop background context never cancels, so the error is always nil
	//lint:ignore ctxflow synchronous compatibility wrapper; the ctx-first variant is the primary API
	r, _ := SurfacePotentialCtx(context.Background(), a, mesh, sigma, scale, opt)
	return r
}

// SurfacePotentialCtx is SurfacePotential with cooperative cancellation at
// raster-point boundaries; on cancellation the partial raster is discarded
// and ctx.Err() returned.
func SurfacePotentialCtx(ctx context.Context, a *bem.Assembler, mesh interface{ Bounds() geom.AABB }, sigma []float64, scale float64, opt SurfaceOptions) (*Raster, error) {
	opt = opt.WithDefaults()
	b := mesh.Bounds()
	return SurfacePotentialRectCtx(ctx, a, sigma, scale,
		b.Min.X-opt.Margin, b.Min.Y-opt.Margin,
		b.Max.X+opt.Margin, b.Max.Y+opt.Margin, opt)
}

// SurfacePotentialRect samples V·scale on an explicit rectangle
// [x0, x1] × [y0, y1] at z = 0 through the batched field evaluator.
func SurfacePotentialRect(a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1 float64, opt SurfaceOptions) *Raster {
	//lint:ignore errdrop background context never cancels, so the error is always nil
	//lint:ignore ctxflow synchronous compatibility wrapper; the ctx-first variant is the primary API
	r, _ := SurfacePotentialRectCtx(context.Background(), a, sigma, scale, x0, y0, x1, y1, opt)
	return r
}

// SurfacePotentialRectCtx is SurfacePotentialRect with cooperative
// cancellation (see SurfacePotentialCtx).
func SurfacePotentialRectCtx(ctx context.Context, a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1 float64, opt SurfaceOptions) (*Raster, error) {
	opt = opt.WithDefaults()
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
	if _, err := a.Evaluator().PotentialBatchCtx(ctx, pts, sigma, scale, r.V, batchOpt(opt)); err != nil {
		return nil, err
	}
	return r, nil
}

// batchOpt forwards the worker/schedule knobs of a SurfaceOptions to the
// evaluator's batch loop.
func batchOpt(opt SurfaceOptions) bem.BatchOptions {
	return bem.BatchOptions{Workers: opt.Workers, Schedule: opt.Schedule}
}

// ProfilePotential samples V·scale along the straight surface segment from
// (x0, y0) to (x1, y1) at n evenly spaced points, returning the arc
// coordinates and values. Useful for step-voltage profiles. Points are
// evaluated in parallel; see ProfilePotentialOpt for worker/schedule control.
func ProfilePotential(a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1 float64, n int) (s, v []float64) {
	return ProfilePotentialOpt(a, sigma, scale, x0, y0, x1, y1, n, SurfaceOptions{})
}

// ProfilePotentialOpt is ProfilePotential with explicit worker/schedule
// knobs (only the Workers and Schedule fields of opt are consulted).
func ProfilePotentialOpt(a *bem.Assembler, sigma []float64, scale float64, x0, y0, x1, y1 float64, n int, opt SurfaceOptions) (s, v []float64) {
	if n < 2 {
		panic(fmt.Sprintf("post: profile needs ≥ 2 points, got %d", n))
	}
	opt = opt.WithDefaults()
	s = make([]float64, n)
	v = make([]float64, n)
	pts := make([]geom.Vec3, n)
	length := math.Hypot(x1-x0, y1-y0)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		s[i] = t * length
		pts[i] = geom.V(x0+t*(x1-x0), y0+t*(y1-y0), 0)
	}
	a.Evaluator().PotentialBatch(pts, sigma, scale, v, batchOpt(opt))
	return s, v
}
