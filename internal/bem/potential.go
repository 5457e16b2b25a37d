package bem

import (
	"earthing/internal/geom"
	"earthing/internal/quad"
	"earthing/internal/soil"
)

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

// elementGradByDifferences is the finite-difference fallback for one
// element's contribution when its layer pair has no image expansion
// (Hankel-based kernels).
func (a *Assembler) elementGradByDifferences(e int, x geom.Vec3, sigma []float64) geom.Vec3 {
	const h = 1e-4
	v := func(p geom.Vec3) float64 { return a.elementPotentialQuadrature(e, p, sigma) }
	dx := (v(x.Add(geom.V(h, 0, 0))) - v(x.Add(geom.V(-h, 0, 0)))) / (2 * h)
	dy := (v(x.Add(geom.V(0, h, 0))) - v(x.Add(geom.V(0, -h, 0)))) / (2 * h)
	var dz float64
	if x.Z > h {
		dz = (v(x.Add(geom.V(0, 0, h))) - v(x.Add(geom.V(0, 0, -h)))) / (2 * h)
	} else {
		// One-sided at the surface to stay in the ground.
		dz = (v(x.Add(geom.V(0, 0, h))) - v(x)) / h
	}
	return geom.V(dx, dy, dz)
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
