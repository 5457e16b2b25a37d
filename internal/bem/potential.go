package bem

import (
	"math"

	"earthing/internal/geom"
	"earthing/internal/quad"
	"earthing/internal/soil"
)

// Potential evaluates the earth potential V(x) = Σ_i σ_i·V_i(x) of
// eq. (4.2)–(4.3) at an arbitrary point from the solved DoF vector sigma
// (leakage line density per unit GPR, scaled by the caller if GPR ≠ 1).
//
// x may be anywhere in the ground or on its surface. Cost is O(M·p) series
// evaluations per point (§4.3), so computing dense potential contours is the
// second parallelizable hot spot of the paper; package post distributes
// batches of points over workers.
func (a *Assembler) Potential(x geom.Vec3, sigma []float64) float64 {
	obsLayer := a.model.LayerOf(math.Max(x.Z, 0))
	buf, _ := a.innerScratch.Get().(*[]float64)
	if buf == nil {
		s := make([]float64, a.k)
		buf = &s
	}
	inner := *buf
	var total quad.KahanSum
	for e := range a.mesh.Elements {
		el := &a.mesh.Elements[e]
		srcLayer := a.elemLayer[e]
		lo, hi, ok := a.ladder.pair(srcLayer, obsLayer)
		if !ok {
			total.Add(a.elementPotentialQuadrature(e, x, sigma))
			continue
		}
		pref := 1 / (4 * math.Pi * a.model.Conductivity(srcLayer))

		// Nodal weights of this element's contribution.
		var s0, s1 float64
		s0 = sigma[el.DoF[0]]
		if a.linear {
			s1 = sigma[el.DoF[1]]
		}

		var accum float64
		maxAccum := 0.0
		smallGroups := 0
		for gi := lo; gi < hi; gi++ {
			var gsum float64
			for _, im := range a.ladder.group(gi) {
				segI := im.applySegment(el.Seg)
				shapeIntegrals(x, segI.A, segI.B, el.Radius, a.linear, inner)
				if a.linear {
					gsum += im.w * (inner[0]*s0 + inner[1]*s1)
				} else {
					gsum += im.w * inner[0] * s0
				}
			}
			accum += gsum
			if av := math.Abs(accum); av > maxAccum {
				maxAccum = av
			}
			if math.Abs(gsum) <= a.opt.SeriesTol*maxAccum {
				smallGroups++
				if smallGroups >= 2 {
					break
				}
			} else {
				smallGroups = 0
			}
		}
		total.Add(pref * accum)
	}
	a.innerScratch.Put(buf)
	return total.Sum()
}

// elementPotentialQuadrature integrates one element's contribution to V(x)
// by Gauss quadrature of the exact point kernel (used for layer pairs with
// no image expansion).
func (a *Assembler) elementPotentialQuadrature(e int, x geom.Vec3, sigma []float64) float64 {
	el := &a.mesh.Elements[e]
	l := el.Seg.Length()
	var total quad.KahanSum
	for h, th := range a.gpT {
		xi := el.Seg.Point(th)
		var dens float64
		if a.linear {
			dens = a.gpShape[h][0]*sigma[el.DoF[0]] + a.gpShape[h][1]*sigma[el.DoF[1]]
		} else {
			dens = sigma[el.DoF[0]]
		}
		total.Add(a.gpW[h] * l * dens * a.model.PointPotential(x, xi))
	}
	return total.Sum()
}

// LeakageDensity returns the leakage line density σ(t) at parametric
// position t ∈ [0, 1] along element e (eq. 4.1), in A/m per unit GPR.
func (a *Assembler) LeakageDensity(e int, t float64, sigma []float64) float64 {
	el := &a.mesh.Elements[e]
	if a.linear {
		return (1-t)*sigma[el.DoF[0]] + t*sigma[el.DoF[1]]
	}
	return sigma[el.DoF[0]]
}

// Model returns the soil model the assembler was built with.
func (a *Assembler) Model() soil.Model { return a.model }
