package bem

import (
	"math"

	"earthing/internal/geom"
)

// segmentIntegralGrads returns the closed-form gradients (with respect to
// the field point x) of the segment integrals i0 and i1 of
// segmentIntegrals. With p the axial coordinate, ρ the (clamped) radial
// distance, R0 = R(0), R1 = R(L):
//
//	∂i0/∂p = 1/R0 − 1/R1
//	∂i0/∂ρ = −( p/R0 + (L−p)/R1 ) / ρ
//	∂i1/∂p = ( ∂R1/∂p − ∂R0/∂p + i0 + p·∂i0/∂p ) / L
//	∂i1/∂ρ = ( ρ/R1 − ρ/R0 + p·∂i0/∂ρ ) / L
//
// mapped back to Cartesian through ∇p = t̂ and ∇ρ = ρ̂ (the unit radial
// direction from the axis to x). On the axis ρ̂ is undefined and the radial
// component vanishes by symmetry.
//
// The gradients feed the electric field E = −∇V and the current density
// σ = −γ∇V of eq. (2.1), and the surface-gradient step-voltage estimates.
func segmentIntegralGrads(x geom.Vec3, a, b geom.Vec3, minRho float64) (g0, g1 geom.Vec3) {
	ab := b.Sub(a)
	l := ab.Norm()
	if l == 0 {
		return geom.Vec3{}, geom.Vec3{}
	}
	t := ab.Scale(1 / l)
	xa := x.Sub(a)
	p := xa.Dot(t)
	radial := xa.Sub(t.Scale(p)) // x − its axis projection
	rhoTrue := radial.Norm()
	rho := rhoTrue
	clamped := false
	if rho < minRho {
		rho = minRho
		clamped = true
	}
	var rhoHat geom.Vec3
	if rhoTrue > 1e-14*(1+l) && !clamped {
		rhoHat = radial.Scale(1 / rhoTrue)
	}
	// Inside the clamp region the integrals are constant in the radial
	// direction (ρ is pinned), so the radial gradient is zero there too —
	// consistent with the thin-wire surface evaluation.

	r0 := math.Sqrt(rho*rho + p*p)
	r1 := math.Sqrt(rho*rho + (l-p)*(l-p))
	i0 := math.Asinh((l-p)/rho) + math.Asinh(p/rho)

	di0dp := 1/r0 - 1/r1
	di0drho := -(p/r0 + (l-p)/r1) / rho

	dr0dp := p / r0
	dr1dp := -(l - p) / r1
	di1dp := (dr1dp - dr0dp + i0 + p*di0dp) / l
	di1drho := (rho/r1 - rho/r0 + p*di0drho) / l

	g0 = t.Scale(di0dp).Add(rhoHat.Scale(di0drho))
	g1 = t.Scale(di1dp).Add(rhoHat.Scale(di1drho))
	return g0, g1
}

// GradPotential evaluates ∇V(x) (volts per metre, per unit GPR) from the
// solved DoF vector by differentiating the image-series potential term by
// term; for models without an image expansion it falls back to central
// finite differences of Potential.
func (a *Assembler) GradPotential(x geom.Vec3, sigma []float64) geom.Vec3 {
	obsLayer := a.model.LayerOf(math.Max(x.Z, 0))
	var total geom.Vec3
	for e := range a.mesh.Elements {
		el := &a.mesh.Elements[e]
		srcLayer := a.elemLayer[e]
		lo, hi, ok := a.ladder.pair(srcLayer, obsLayer)
		if !ok {
			total = total.Add(a.elementGradByDifferences(e, x, sigma))
			continue
		}
		pref := 1 / (4 * math.Pi * a.model.Conductivity(srcLayer))

		s0 := sigma[el.DoF[0]]
		var s1 float64
		if a.linear {
			s1 = sigma[el.DoF[1]]
		}

		var accum geom.Vec3
		maxAccum := 0.0
		smallGroups := 0
		for gi := lo; gi < hi; gi++ {
			var gsum geom.Vec3
			for _, im := range a.ladder.group(gi) {
				segI := im.applySegment(el.Seg)
				g0, g1 := segmentIntegralGrads(x, segI.A, segI.B, el.Radius)
				var g geom.Vec3
				if a.linear {
					// ∇(∫N_A/r)·s0 + ∇(∫N_B/r)·s1 = (g0−g1)s0 + g1·s1.
					g = g0.Sub(g1).Scale(s0).Add(g1.Scale(s1))
				} else {
					g = g0.Scale(s0)
				}
				gsum = gsum.Add(g.Scale(im.w))
			}
			accum = accum.Add(gsum)
			if n := accum.Norm(); n > maxAccum {
				maxAccum = n
			}
			if gsum.Norm() <= a.opt.SeriesTol*maxAccum {
				smallGroups++
				if smallGroups >= 2 {
					break
				}
			} else {
				smallGroups = 0
			}
		}
		total = total.Add(accum.Scale(pref))
	}
	return total
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

// ElectricField returns E = −∇V at x in V/m per unit GPR.
func (a *Assembler) ElectricField(x geom.Vec3, sigma []float64) geom.Vec3 {
	return a.GradPotential(x, sigma).Scale(-1)
}

// CurrentDensity returns the conduction current density σ = −γ·∇V (A/m²
// per unit GPR) at a point strictly inside the ground, using the
// conductivity of the layer containing x (eq. 2.1).
func (a *Assembler) CurrentDensity(x geom.Vec3, sigma []float64) geom.Vec3 {
	gamma := a.model.Conductivity(a.model.LayerOf(math.Max(x.Z, 0)))
	return a.GradPotential(x, sigma).Scale(-gamma)
}
