package bem

import (
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/quad"
)

// geometry is the soil-independent precomputed state of a discretized mesh:
// Gauss point positions on every element axis, reference weights, shape
// function values and reference coordinates, for both the far-field and the
// refined near-field outer rules. It depends only on (mesh, GaussOrder,
// NearGaussOrder) and is immutable once built.
type geometry struct {
	mesh   *grid.Mesh
	linear bool
	k      int // DoF per element

	// Per-element outer (test) integration data (far-field order).
	gpPos   [][]geom.Vec3 // Gauss point positions on each element axis
	gpW     []float64     // reference Gauss weights ×½ (apply ×length)
	gpShape [][2]float64  // shape function values at each reference point
	gpT     []float64     // reference coordinates t ∈ (0,1)

	// Refined outer integration for near pairs (self/touching/adjacent);
	// aliases the far-field data when NearGaussOrder == GaussOrder.
	gpPosN   [][]geom.Vec3
	gpWN     []float64
	gpShapeN [][2]float64
	gpTN     []float64
}

// newGeometry precomputes the quadrature geometry of a non-empty mesh for
// the integration orders of opt, whose defaults are already applied.
func newGeometry(m *grid.Mesh, opt Options) *geometry {
	g := &geometry{
		mesh:   m,
		linear: m.Kind == grid.Linear,
		k:      m.DoFCount(),
	}

	buildSet := func(order int) (pos [][]geom.Vec3, w []float64, shape [][2]float64, ts []float64) {
		rule := quad.GaussLegendre(order)
		w = make([]float64, rule.Len())
		shape = make([][2]float64, rule.Len())
		ts = make([]float64, rule.Len())
		for gp, xg := range rule.X {
			t := 0.5 * (xg + 1)
			ts[gp] = t
			w[gp] = 0.5 * rule.W[gp]
			if g.linear {
				shape[gp] = [2]float64{1 - t, t}
			} else {
				shape[gp] = [2]float64{1, 0}
			}
		}
		pos = make([][]geom.Vec3, len(m.Elements))
		for e, el := range m.Elements {
			pts := make([]geom.Vec3, rule.Len())
			for gp, t := range ts {
				pts[gp] = el.Seg.Point(t)
			}
			pos[e] = pts
		}
		return pos, w, shape, ts
	}
	g.gpPos, g.gpW, g.gpShape, g.gpT = buildSet(opt.GaussOrder)
	if opt.NearGaussOrder == opt.GaussOrder {
		g.gpPosN, g.gpWN, g.gpShapeN, g.gpTN = g.gpPos, g.gpW, g.gpShape, g.gpT
	} else {
		g.gpPosN, g.gpWN, g.gpShapeN, g.gpTN = buildSet(opt.NearGaussOrder)
	}
	return g
}

// Mesh returns the discretized mesh the geometry was built from.
func (g *geometry) Mesh() *grid.Mesh { return g.mesh }

// footprint estimates the resident bytes of the precomputed quadrature data:
// Gauss point positions (24 B per point), weights, shape values and reference
// coordinates, counting the refined near-field set only when it does not
// alias the far-field one (near is false when the orders agree).
func (g *geometry) footprint(near bool) int64 {
	var n int64
	for _, p := range g.gpPos {
		n += int64(len(p)) * 24
	}
	n += int64(len(g.gpW))*8 + int64(len(g.gpShape))*16 + int64(len(g.gpT))*8
	if near {
		for _, p := range g.gpPosN {
			n += int64(len(p)) * 24
		}
		n += int64(len(g.gpWN))*8 + int64(len(g.gpShapeN))*16 + int64(len(g.gpTN))*8
	}
	return n
}
