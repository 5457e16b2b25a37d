package bem

import "math"

// farT gates the series fast path of the inner integral: when
// pp²+q² < farT·ρ² both asinh arguments x = pp/ρ, q/ρ satisfy x² ≤ 0.017
// (|x| ≤ 0.131), where the degree-8 Maclaurin polynomial of asinh(x)/x is
// accurate to < 1e-16 relative (next term c₉x¹⁶ ≈ 7e-17 at the boundary) —
// below one ulp, so the fast path is numerically indistinguishable from the
// log form it replaces.
const farT = 0.017

// asinhRatio evaluates asinh(x)/x as its Maclaurin polynomial in t = x²,
// with the exact Taylor coefficients (−1)ᵏ(2k−1)!!/((2k)!!(2k+1)). Valid
// for t ≤ farT; one polynomial replaces the logarithm that dominates the
// assembly profile for far (image, Gauss point) pairs.
func asinhRatio(t float64) float64 {
	return 1 + t*(-1.0/6+t*(3.0/40+t*(-15.0/336+t*(105.0/3456+
		t*(-945.0/42240+t*(10395.0/599040+t*(-135135.0/9676800+
			t*(2027025.0/175472640))))))))
}

// flatSeries accumulates the elemental matrix of one pair from the shared
// image ladder, given the source element's header pe and the hoisted
// per-Gauss-point observation geometry in s (ng points): hxy, the axial
// projection of the horizontal offset from the source start; dxy2, its
// squared length; chiZ, the observation depth; wsh0/wsh1, the outer weight
// gpW·lenB times each test shape function. The reference kernel re-derives
// every image-reflected segment (applySegment) and evaluates two asinh calls
// per (image, Gauss point); here the reflection is three scalars per image
// (az = sign·az0 + off, sz = sign·tz, w), and the inner integral is
// evaluated in the cancellation-safe log form of logI0. Two structural fast
// paths cut the transcendental count further: equal-weight image groups of
// horizontal elements fuse their logarithms into one call per Gauss point,
// and far terms replace the logarithm with a Maclaurin polynomial
// (asinhRatio). Series-group order, the per-group tolerance early-exit and
// the near-pair rule selection mirror the reference kernel exactly, so
// truncation decisions agree; the remaining difference is ulp-level
// arithmetic reassociation (grid resistances agree to ≤ 1e-10 relative,
// pinned by the equivalence tests). out must be zeroed on entry.
func (a *Assembler) flatSeries(pe *planElem, ng int, out []float64, s *pairScratch) {
	imgs, grpOff := a.ladder.imgs, a.ladder.grpOff
	hxy, dxy2, chiZ := s.hxy[:ng], s.dxy2[:ng], s.chiZ[:ng]
	wsh0, wsh1 := s.wsh0[:ng], s.wsh1[:ng]
	l, invL, r2min := pe.l, pe.invL, pe.radius2
	linear := a.linear
	group := s.group
	// Horizontal source elements (tz = 0 ⟹ sz = 0 for every image) see the
	// same axial projection pp — and hence q — for all images of the pair:
	// the image sum is then linear in Σw·i0 and Σw·(r1−r0), so groups whose
	// images share one series weight (every MultiLayer group does) fuse
	// their logarithms into a single call via Σ log aᵢ = log Π aᵢ.
	horizontal := pe.tz == 0
	az0, tz := pe.az0, pe.tz

	maxAccum := 0.0
	smallGroups := 0
	for gi := pe.grpLo; gi < pe.grpHi; gi++ {
		for i := range group {
			group[i] = 0
		}
		ims := imgs[grpOff[gi]:grpOff[gi+1]]
		fused := horizontal && len(ims) > 1
		if fused {
			for _, im := range ims[1:] {
				//lint:ignore floatcmp exact weight equality is the fusion precondition: Σ w·log aᵢ = w·log Π aᵢ only holds for one shared w
				if im.w != ims[0].w {
					fused = false
					break
				}
			}
		}
		if fused {
			w := ims[0].w
			var t0, t1, t2, t3 float64
			for g := 0; g < ng; g++ {
				pp := hxy[g]
				q := l - pp
				pp2, q2 := pp*pp, q*q
				d2 := dxy2[g]
				z := chiZ[g]
				// One running product per Gauss point: num/den accumulates
				// Π (q+r1)(pp+r0)/ρ² over the group's images, each factor in
				// the same cancellation-rewritten form logI0 uses, so a
				// single logarithm yields Σ i0. i0 > 0 for every image
				// (pp+q = l > 0), so the fused sum has no cancellation.
				num, den := 1.0, 1.0
				sd := 0.0
				for _, im := range ims {
					dz := z - (im.sign*az0 + im.off)
					rho2 := d2 + dz*dz - pp2
					if rho2 < r2min {
						rho2 = r2min
					}
					r0 := math.Sqrt(rho2 + pp2)
					r1 := math.Sqrt(rho2 + q2)
					if pp >= 0 {
						num *= pp + r0
					} else {
						num *= rho2
						den *= r0 - pp
					}
					if q >= 0 {
						num *= q + r1
					} else {
						num *= rho2
						den *= r1 - q
					}
					den *= rho2
					sd += r1 - r0
				}
				i0 := math.Log(num / den)
				if linear {
					i1 := (sd + pp*i0) * invL
					in0 := i0 - i1
					t0 += wsh0[g] * in0
					t1 += wsh0[g] * i1
					t2 += wsh1[g] * in0
					t3 += wsh1[g] * i1
				} else {
					t0 += wsh0[g] * i0
				}
			}
			if linear {
				group[0] += w * t0
				group[1] += w * t1
				group[2] += w * t2
				group[3] += w * t3
			} else {
				group[0] += w * t0
			}
		} else {
			for _, im := range ims {
				az, sz, w := im.sign*az0+im.off, im.sign*tz, im.w
				// Accumulate the image's Gauss sum unweighted by w, applying
				// the series weight once per (image, entry) after the point
				// loop.
				var a0, a1, a2, a3 float64
				for g := 0; g < ng; g++ {
					dz := chiZ[g] - az
					pp := hxy[g] + sz*dz
					rho2 := dxy2[g] + dz*dz - pp*pp
					if rho2 < r2min {
						rho2 = r2min
					}
					q := l - pp
					var i0, dr float64
					if pp*pp+q*q < farT*rho2 {
						// Far term: asinh(pp/ρ)+asinh(q/ρ) by Maclaurin
						// polynomial — no logarithm.
						invRho := 1 / math.Sqrt(rho2)
						xp, xq := pp*invRho, q*invRho
						i0 = xp*asinhRatio(xp*xp) + xq*asinhRatio(xq*xq)
						if linear {
							dr = math.Sqrt(rho2+q*q) - math.Sqrt(rho2+pp*pp)
						}
					} else {
						r0 := math.Sqrt(rho2 + pp*pp)
						r1 := math.Sqrt(rho2 + q*q)
						i0 = logI0(pp, q, r0, r1, rho2)
						dr = r1 - r0
					}
					if linear {
						i1 := (dr + pp*i0) * invL
						in0 := i0 - i1
						a0 += wsh0[g] * in0
						a1 += wsh0[g] * i1
						a2 += wsh1[g] * in0
						a3 += wsh1[g] * i1
					} else {
						a0 += wsh0[g] * i0
					}
				}
				if linear {
					group[0] += w * a0
					group[1] += w * a1
					group[2] += w * a2
					group[3] += w * a3
				} else {
					group[0] += w * a0
				}
			}
		}
		gmax := 0.0
		for i, v := range group {
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
		out[i] *= pe.pref
	}
}
