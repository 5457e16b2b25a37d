package bem

import (
	"math"

	"earthing/internal/geom"
	"earthing/internal/linalg"
	"earthing/internal/quad"
)

// The closed-form oracles of the production paths. Each evaluates the image
// series one reflected segment at a time through the asinh inner integrals
// of segmentIntegrals (and their gradients), with the series-group order,
// per-group tolerance early-exit and near-pair rule selection of the
// production kernels, so truncation decisions agree and any difference is
// arithmetic reassociation. The flat assembly kernel and the batched field
// evaluator are pinned to them (export_test.go hands them to the external
// differential tests).

// applySegment maps a source segment to its image segment, with exactly the
// arithmetic of soil.Image.ApplySegment.
func (im ladderImage) applySegment(s geom.Segment) geom.Segment {
	return geom.Segment{
		A: geom.Vec3{X: s.A.X, Y: s.A.Y, Z: im.sign*s.A.Z + im.off},
		B: geom.Vec3{X: s.B.X, Y: s.B.Y, Z: im.sign*s.B.Z + im.off},
	}
}

// referenceMatrix generates the Galerkin matrix pair by pair, in the
// triangle order of MatrixCtx's scatter: referencePairMatrix for layer pairs
// with an image expansion, the production quadrature fallback otherwise.
func (a *Assembler) referenceMatrix() *linalg.SymMatrix {
	m := len(a.mesh.Elements)
	r := linalg.NewSymMatrix(a.mesh.NumDoF)
	s := a.newScratch()
	for beta := 0; beta < m; beta++ {
		for alpha := 0; alpha <= beta; alpha++ {
			if _, _, ok := a.ladder.pair(a.elemLayer[alpha], a.elemLayer[beta]); ok {
				a.referencePairMatrix(beta, alpha, s.elemental, s)
			} else {
				a.pairMatrixExact(beta, alpha, s.elemental, s)
			}
			a.assemblePair(r, beta, alpha, s.elemental)
		}
	}
	return r
}

// referencePairMatrix computes the elemental matrix of the ordered pair
// (beta, alpha) into out (row-major k×k, out[j·k+i] = ∫_β w_j ∫_α N_i G):
// the double integral of eq. (4.5) with the kernel series truncated group
// by group "until a tolerance is fulfilled or an upper limit of summands is
// achieved" (§4.3). out must not alias s.group or s.inner.
func (a *Assembler) referencePairMatrix(beta, alpha int, out []float64, s *pairScratch) {
	k := a.k
	elA := &a.mesh.Elements[alpha]
	elB := &a.mesh.Elements[beta]
	srcLayer := a.elemLayer[alpha]
	obsLayer := a.elemLayer[beta]
	lo, hi, _ := a.ladder.pair(srcLayer, obsLayer)
	pref := 1 / (4 * math.Pi * a.model.Conductivity(srcLayer))
	lenB := elB.Seg.Length()
	for i := range out {
		out[i] = 0
	}

	// Near pairs (self, touching, adjacent) get the refined outer rule.
	gpPos, gpW, gpShape := a.gpPos[beta], a.gpW, a.gpShape
	if beta == alpha ||
		elB.Seg.DistToSegment(elA.Seg) < 0.5*(lenB+elA.Seg.Length()) {
		gpPos, gpW, gpShape = a.gpPosN[beta], a.gpWN, a.gpShapeN
	}

	maxAccum := 0.0
	smallGroups := 0
	for gi := lo; gi < hi; gi++ {
		for i := range s.group {
			s.group[i] = 0
		}
		for _, im := range a.ladder.group(gi) {
			segI := im.applySegment(elA.Seg)
			for g, chi := range gpPos {
				shapeIntegrals(chi, segI.A, segI.B, elA.Radius, a.linear, s.inner)
				wg := gpW[g] * lenB * im.w
				for j := 0; j < k; j++ {
					wj := wg * gpShape[g][j]
					for i := 0; i < k; i++ {
						s.group[j*k+i] += wj * s.inner[i]
					}
				}
			}
		}
		gmax := 0.0
		for i, v := range s.group {
			out[i] += v
			if av := math.Abs(v); av > gmax {
				gmax = av
			}
			if av := math.Abs(out[i]); av > maxAccum {
				maxAccum = av
			}
		}
		if gmax <= a.opt.SeriesTol*maxAccum {
			smallGroups++
			if smallGroups >= 2 {
				break
			}
		} else {
			smallGroups = 0
		}
	}
	for i := range out {
		out[i] *= pref
	}
}

// referencePotential evaluates the earth potential V(x) = Σ_i σ_i·V_i(x) of
// eq. (4.2)–(4.3) at x from the solved DoF vector sigma (per unit GPR).
func (a *Assembler) referencePotential(x geom.Vec3, sigma []float64) float64 {
	obsLayer := a.model.LayerOf(math.Max(x.Z, 0))
	inner := make([]float64, a.k)
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

		s0 := sigma[el.DoF[0]]
		var s1 float64
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
	return total.Sum()
}

// referenceGradient evaluates ∇V(x) (V/m per unit GPR) by differentiating
// the image-series potential term by term through segmentIntegralGrads; for
// layer pairs without an image expansion it takes the production
// finite-difference fallback.
func (a *Assembler) referenceGradient(x geom.Vec3, sigma []float64) geom.Vec3 {
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
// component vanishes by symmetry; inside the clamp region the integrals are
// constant in the radial direction, so the radial gradient is zero there
// too, consistent with the thin-wire surface evaluation.
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
