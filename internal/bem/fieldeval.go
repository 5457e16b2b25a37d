package bem

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"earthing/internal/geom"
	"earthing/internal/quad"
	"earthing/internal/sched"
)

// FieldEvaluator is the batched, allocation-free field evaluation engine for
// the post-processing hot spot (§4.3): dense surface-potential and gradient
// rasters cost O(points × elements × images) kernel evaluations, and a
// direct per-point evaluation (the closed-form oracle of the package tests)
// re-derives every image-reflected segment for every observation point even
// though the reflected geometry depends only on (element, image).
//
// The evaluator splits that work into a precompute phase and a streaming
// phase. At construction (lazily, per observation layer) it hoists every
// element's observation-point-invariant geometry into a flat header and
// points it at its layer pair's series in the assembler's shared image
// ladder. Because every image is affine in z only, an image segment shares
// the (x, y) geometry of its source element: the transformed endpoint depth
// az = sign·A.Z + off, the transformed axial direction component
// sz = sign·t.z, and the series weight fully describe it, and the two depths
// are computed in the loop (sign = ±1 makes both products exact). The
// per-point inner loop then reduces to a cache-friendly scan over the flat
// ladder with two square roots per image and at most one logarithm (the
// closed form asinh(a) + asinh(b) = log((a+√(a²+1))·(b+√(b²+1))) evaluated
// cancellation-safely), preserving the element order, KahanSum accumulation
// and per-group tolerance early-exit of the direct evaluation to ≪ 1e-10. Two
// exact structural savings cut that further:
//
//   - Surface points (z = 0) of a mirror-symmetric ladder (imageLadder.mirror)
//     skip every sign < 0 image and count its bitwise-equal mirror twice,
//     halving the images — the surface rasters, profiles and safety voltages
//     are exactly these points. Gradients drop the pairs' z terms, which
//     cancel exactly.
//   - Horizontal elements (t.z = 0) share one axial projection across all
//     images, so a group whose images share one weight takes one logarithm
//     of a running product (Σ log aᵢ = log Π aᵢ), as the flat assembly
//     kernel does.
//
// Layer pairs without an image expansion (N ≥ 3 layer models outside the
// top layer) fall back to exact Gauss quadrature of Model.PointPotential.
//
// Obtain one with Assembler.Evaluator (cached, concurrency-safe); all batch
// and per-point methods are safe for concurrent use.
type FieldEvaluator struct {
	a *Assembler
	// plans[l-1] is the lazily built flattened plan for observation layer l.
	plans []lazyPlan
}

// lazyPlan builds its plan once; plan is atomic so that footprint can see
// which plans exist without building them.
type lazyPlan struct {
	once sync.Once
	plan atomic.Pointer[evalPlan]
}

// evalPlan holds, for one observation layer, every element's header and the
// series-group range it reads from the shared image ladder (computed once,
// reused for every point).
type evalPlan struct {
	elems []planElem
	// quadElems are elements whose (src, obs) layer pair has no image
	// expansion; they fall back to quadrature of Model.PointPotential.
	quadElems []int32
}

// planElem is the per-element header of a plan: the observation-point-
// invariant geometry and prefactors of one source element. The flat
// assembly kernel takes its source in the same form (classMatrix builds one
// from a pair-class key, with the source start at the horizontal origin).
type planElem struct {
	pref    float64 // 1/(4π·γ_src)
	radius2 float64 // conductor radius squared (thin-wire ρ clamp)
	l, invL float64 // element length and its reciprocal
	ax, ay  float64 // segment start (x, y) — shared by every image
	tx, ty  float64 // axial unit direction (x, y) — shared by every image
	tz      float64 // axial unit direction z of the source segment
	az0     float64 // segment start depth; an image's is sign·az0 + off
	dof0    int32
	dof1    int32 // valid only for linear elements
	// [grpLo, grpHi) is the element's series-group range in the ladder.
	grpLo int32
	grpHi int32
}

// planElemBytes is the size of one planElem: ten float64 and four int32
// fields.
const planElemBytes = 10*8 + 4*4

// newFieldEvaluator prepares an evaluator; plans are built per observation
// layer on first use.
func newFieldEvaluator(a *Assembler) *FieldEvaluator {
	return &FieldEvaluator{a: a, plans: make([]lazyPlan, a.model.NumLayers())}
}

// Evaluator returns the batched field evaluation engine for this assembler,
// building it on first call. The evaluator shares the assembler's immutable
// precomputed state and is safe for concurrent use.
func (a *Assembler) Evaluator() *FieldEvaluator {
	a.evalOnce.Do(func() { a.eval.Store(newFieldEvaluator(a)) })
	return a.eval.Load()
}

// plan returns (building on first use) the flattened plan for an observation
// layer.
func (fe *FieldEvaluator) plan(obsLayer int) *evalPlan {
	lp := &fe.plans[obsLayer-1]
	lp.once.Do(func() { lp.plan.Store(buildPlan(fe.a, obsLayer)) })
	return lp.plan.Load()
}

// footprint returns the resident bytes of the plans built so far.
func (fe *FieldEvaluator) footprint() int64 {
	var n int64
	for i := range fe.plans {
		if p := fe.plans[i].plan.Load(); p != nil {
			n += int64(len(p.elems))*planElemBytes + int64(len(p.quadElems))*4
		}
	}
	return n
}

// buildPlan gathers every element's header for one observation layer. This
// is the precompute half of the engine: the per-element geometry and
// prefactors are derived once here instead of once per point.
func buildPlan(a *Assembler, obsLayer int) *evalPlan {
	p := &evalPlan{}
	for e := range a.mesh.Elements {
		el := &a.mesh.Elements[e]
		srcLayer := a.elemLayer[e]
		lo, hi, ok := a.ladder.pair(srcLayer, obsLayer)
		if !ok {
			p.quadElems = append(p.quadElems, int32(e))
			continue
		}
		l := el.Seg.Length()
		t := el.Seg.Dir()
		pe := planElem{
			pref:    1 / (4 * math.Pi * a.model.Conductivity(srcLayer)),
			radius2: el.Radius * el.Radius,
			l:       l,
			ax:      el.Seg.A.X,
			ay:      el.Seg.A.Y,
			tx:      t.X,
			ty:      t.Y,
			tz:      t.Z,
			az0:     el.Seg.A.Z,
			dof0:    int32(el.DoF[0]),
			grpLo:   lo,
			grpHi:   hi,
		}
		if l > 0 {
			pe.invL = 1 / l
		}
		if a.linear {
			pe.dof1 = int32(el.DoF[1])
		}
		p.elems = append(p.elems, pe)
	}
	return p
}

// logI0 returns i0 = asinh(q/ρ) + asinh(p/ρ) = log((q+r1)(p+r0)/ρ²), where
// r0 = √(ρ²+p²), r1 = √(ρ²+q²). Negative p or q would cancel against its
// root, so those factors are rewritten as ρ²/(r−|·|). One log replaces the
// two asinh calls of the per-point path; the result agrees to a few ulp.
func logI0(p, q, r0, r1, rho2 float64) float64 {
	u := q + r1
	if q < 0 {
		u = rho2 / (r1 - q)
	}
	v := p + r0
	if p < 0 {
		v = rho2 / (r0 - p)
	}
	return math.Log(u * v / rho2)
}

// PotentialAt evaluates the earth potential V(x) (per unit GPR) from the
// solved DoF vector, matching the closed-form oracle to well below 1e-10. It
// allocates nothing once the observation layer's plan is built, so it is the
// per-point core the batch methods stream over.
func (fe *FieldEvaluator) PotentialAt(x geom.Vec3, sigma []float64) float64 {
	a := fe.a
	p := fe.plan(a.model.LayerOf(math.Max(x.Z, 0)))
	imgs, grpOff := a.ladder.imgs, a.ladder.grpOff
	linear := a.linear
	// On the surface of a mirror-symmetric ladder every sign < 0 image
	// repeats its mirror's term bit for bit: skip it and count the mirror
	// twice (the ×2 is folded into the element prefactor, exactly).
	surface := x.Z == 0 && a.ladder.mirror

	var total quad.KahanSum
	for ei := range p.elems {
		pe := &p.elems[ei]
		s0 := sigma[pe.dof0]
		var ds float64
		if linear {
			ds = sigma[pe.dof1] - s0
		}
		dx := x.X - pe.ax
		dy := x.Y - pe.ay
		hxy := dx*pe.tx + dy*pe.ty
		dxy2 := dx*dx + dy*dy
		l, invL, r2min := pe.l, pe.invL, pe.radius2
		az0, tz := pe.az0, pe.tz
		// A horizontal element (tz = 0) has the same axial projection pp =
		// hxy, and hence the same q, for every image.
		horizontal := tz == 0
		pp0, q0 := hxy, l-hxy
		pp02, q02 := pp0*pp0, q0*q0

		var accum float64
		maxAccum := 0.0
		smallGroups := 0
		for g := pe.grpLo; g < pe.grpHi; g++ {
			ims := imgs[grpOff[g]:grpOff[g+1]]
			var gsum float64
			w, fused := 0.0, false
			if horizontal {
				w, fused = sharedWeight(ims)
			}
			if fused {
				// One logarithm per group: the running product num/den
				// accumulates Π (q+r1)(pp+r0)/ρ² over the group's images,
				// each factor in the cancellation-rewritten form of logI0,
				// so log(num/den) = Σ i0 (every i0 > 0 since pp+q = l > 0).
				// With one pp for all images, Σ i1 = (Σ(r1−r0) + pp·Σ i0)/l.
				num, den := 1.0, 1.0
				sd := 0.0
				for _, im := range ims {
					if surface && im.sign < 0 {
						continue
					}
					dz := x.Z - (im.sign*az0 + im.off)
					rho2 := dxy2 + dz*dz - pp02
					if rho2 < r2min {
						rho2 = r2min
					}
					r0 := math.Sqrt(rho2 + pp02)
					r1 := math.Sqrt(rho2 + q02)
					if pp0 >= 0 {
						num *= pp0 + r0
					} else {
						num *= rho2
						den *= r0 - pp0
					}
					if q0 >= 0 {
						num *= q0 + r1
					} else {
						num *= rho2
						den *= r1 - q0
					}
					den *= rho2
					sd += r1 - r0
				}
				i0 := math.Log(num / den)
				if linear {
					i1 := (sd + pp0*i0) * invL
					gsum = w * (i0*s0 + i1*ds)
				} else {
					gsum = w * i0 * s0
				}
			} else {
				for _, im := range ims {
					if surface && im.sign < 0 {
						continue
					}
					dz := x.Z - (im.sign*az0 + im.off)
					pp := hxy + im.sign*tz*dz
					pp2 := pp * pp
					rho2 := dxy2 + dz*dz - pp2
					if rho2 < r2min {
						rho2 = r2min
					}
					q := l - pp
					r0 := math.Sqrt(rho2 + pp2)
					r1 := math.Sqrt(rho2 + q*q)
					i0 := logI0(pp, q, r0, r1, rho2)
					if linear {
						i1 := (r1 - r0 + pp*i0) * invL
						gsum += im.w * (i0*s0 + i1*ds)
					} else {
						gsum += im.w * i0 * s0
					}
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
		pref := pe.pref
		if surface {
			pref *= 2
		}
		total.Add(pref * accum)
	}
	for _, e := range p.quadElems {
		total.Add(a.elementPotentialQuadrature(int(e), x, sigma))
	}
	return total.Sum()
}

// sharedWeight returns the series weight of a group whose images all carry
// the same one — the precondition for fusing their logarithms, since
// Σ w·log aᵢ = w·log Π aᵢ only holds for one shared w.
func sharedWeight(ims []ladderImage) (float64, bool) {
	if len(ims) == 0 {
		return 0, false
	}
	w := ims[0].w
	for _, im := range ims[1:] {
		//lint:ignore floatcmp exact weight equality is the fusion precondition
		if im.w != w {
			return 0, false
		}
	}
	return w, true
}

// GradientAt evaluates ∇V(x) (V/m per unit GPR) by differentiating the
// image series term by term (central finite differences for layer pairs
// without an image expansion); like PotentialAt it is allocation-free in
// steady state for image-kernel layer pairs.
func (fe *FieldEvaluator) GradientAt(x geom.Vec3, sigma []float64) geom.Vec3 {
	a := fe.a
	p := fe.plan(a.model.LayerOf(math.Max(x.Z, 0)))
	imgs, grpOff := a.ladder.imgs, a.ladder.grpOff
	linear := a.linear
	// The surface skip of PotentialAt: a mirror pair has equal x and y
	// terms and exactly opposite z terms (its image depth, axial z
	// component and radial z component all negate), so the kept image
	// counts twice in x and y and the pair contributes nothing in z.
	surface := x.Z == 0 && a.ladder.mirror

	var total geom.Vec3
	for ei := range p.elems {
		pe := &p.elems[ei]
		s0 := sigma[pe.dof0]
		var ds float64
		if linear {
			ds = sigma[pe.dof1] - s0
		}
		dx := x.X - pe.ax
		dy := x.Y - pe.ay
		hxy := dx*pe.tx + dy*pe.ty
		l, invL := pe.l, pe.invL
		az0, tz := pe.az0, pe.tz
		minRho := math.Sqrt(pe.radius2)
		tiny := 1e-14 * (1 + l)

		var accX, accY, accZ float64
		maxAccum := 0.0
		smallGroups := 0
		for g := pe.grpLo; g < pe.grpHi; g++ {
			var gx, gy, gz float64
			for _, im := range imgs[grpOff[g]:grpOff[g+1]] {
				if surface && im.sign < 0 {
					continue
				}
				szi := im.sign * tz
				dz := x.Z - (im.sign*az0 + im.off)
				pp := hxy + szi*dz
				// Radial vector from the (image) axis to x; its norm is the
				// true ρ before the thin-wire clamp.
				rx := dx - pe.tx*pp
				ry := dy - pe.ty*pp
				rz := dz - szi*pp
				rhoTrue := math.Sqrt(rx*rx + ry*ry + rz*rz)
				rho := rhoTrue
				clamped := false
				if rho < minRho {
					rho = minRho
					clamped = true
				}
				var hx, hy, hz float64 // ρ̂ (zero on-axis or clamped)
				if rhoTrue > tiny && !clamped {
					inv := 1 / rhoTrue
					hx, hy, hz = rx*inv, ry*inv, rz*inv
				}
				rho2 := rho * rho
				q := l - pp
				r0 := math.Sqrt(rho2 + pp*pp)
				r1 := math.Sqrt(rho2 + q*q)
				i0 := logI0(pp, q, r0, r1, rho2)

				di0dp := 1/r0 - 1/r1
				di0drho := -(pp/r0 + q/r1) / rho
				di1dp := (-q/r1 - pp/r0 + i0 + pp*di0dp) * invL
				di1drho := (rho/r1 - rho/r0 + pp*di0drho) * invL

				// g = g0·s0 + g1·(s1−s0) with g_k = t̂·di_k/dp + ρ̂·di_k/dρ.
				coefT := di0dp * s0
				coefR := di0drho * s0
				if linear {
					coefT += di1dp * ds
					coefR += di1drho * ds
				}
				wi := im.w
				gx += wi * (pe.tx*coefT + hx*coefR)
				gy += wi * (pe.ty*coefT + hy*coefR)
				if !surface {
					gz += wi * (szi*coefT + hz*coefR)
				}
			}
			accX += gx
			accY += gy
			accZ += gz
			if n := math.Sqrt(accX*accX + accY*accY + accZ*accZ); n > maxAccum {
				maxAccum = n
			}
			if math.Sqrt(gx*gx+gy*gy+gz*gz) <= a.opt.SeriesTol*maxAccum {
				smallGroups++
				if smallGroups >= 2 {
					break
				}
			} else {
				smallGroups = 0
			}
		}
		pref := pe.pref
		if surface {
			pref *= 2
		}
		total.X += pref * accX
		total.Y += pref * accY
		total.Z += pref * accZ
	}
	for _, e := range p.quadElems {
		total = total.Add(a.elementGradByDifferences(int(e), x, sigma))
	}
	return total
}

// ElectricField returns E = −∇V at x in V/m per unit GPR.
func (fe *FieldEvaluator) ElectricField(x geom.Vec3, sigma []float64) geom.Vec3 {
	return fe.GradientAt(x, sigma).Scale(-1)
}

// CurrentDensity returns the conduction current density −γ·∇V (A/m² per
// unit GPR) at a point strictly inside the ground, using the conductivity
// of the layer containing x (eq. 2.1).
func (fe *FieldEvaluator) CurrentDensity(x geom.Vec3, sigma []float64) geom.Vec3 {
	m := fe.a.model
	return fe.GradientAt(x, sigma).Scale(-m.Conductivity(m.LayerOf(math.Max(x.Z, 0))))
}

// BatchOptions configures a batched evaluation.
type BatchOptions struct {
	// Workers is the parallel width; 0 selects GOMAXPROCS, 1 runs
	// sequentially in the calling goroutine.
	Workers int
	// Schedule distributes points over workers (default dynamic,1 — the
	// paper's best schedule; raster points near conductors cost more series
	// groups than far ones, so dynamic balancing matters here too).
	Schedule sched.Schedule
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.Schedule.IsZero() {
		o.Schedule = sched.Schedule{Kind: sched.Dynamic, Chunk: 1}
	}
	return o
}

// BatchStats describes how a batched evaluation ran.
type BatchStats struct {
	// Sched reports the work distribution of the point loop.
	Sched sched.Stats
	// Busy is the per-worker busy time.
	Busy []time.Duration
	// Wall is the total wall-clock time of the batch.
	Wall time.Duration
}

// PredictedSpeedup returns Σbusy/max(busy) — the load-balance-limited
// speed-up the schedule would achieve with one core per worker, the same
// quantity the matrix-generation tables report.
func (s BatchStats) PredictedSpeedup() float64 {
	var sum, max time.Duration
	for _, b := range s.Busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 1
	}
	return float64(sum) / float64(max)
}

// PointsPerSec returns the aggregate evaluation throughput of the batch.
func (s BatchStats) PointsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Sched.Iterations) / s.Wall.Seconds()
}

// PotentialBatchCtx evaluates scale·V(points[i]) into out[i] for every
// point, distributing points over workers. out must have len(points). The
// per-point arithmetic is identical to PotentialAt regardless of worker
// count, so results are bit-identical across schedules and parallel widths.
// ctx is observed at point (chunk) boundaries; on cancellation out is
// partially filled and ctx.Err() is returned, and callers must discard it.
func (fe *FieldEvaluator) PotentialBatchCtx(ctx context.Context, points []geom.Vec3, sigma []float64, scale float64, out []float64, opt BatchOptions) (BatchStats, error) {
	return fe.runBatch(ctx, len(points), opt, func(i int) {
		out[i] = scale * fe.PotentialAt(points[i], sigma)
	})
}

// GradBatchCtx evaluates ∇V(points[i]) (per unit GPR, unscaled) into
// out[i], with the distribution and cancellation of PotentialBatchCtx. out
// must have len(points).
func (fe *FieldEvaluator) GradBatchCtx(ctx context.Context, points []geom.Vec3, sigma []float64, out []geom.Vec3, opt BatchOptions) (BatchStats, error) {
	return fe.runBatch(ctx, len(points), opt, func(i int) {
		out[i] = fe.GradientAt(points[i], sigma)
	})
}

// runBatch distributes body over n points with per-worker busy tracking.
func (fe *FieldEvaluator) runBatch(ctx context.Context, n int, opt BatchOptions, body func(i int)) (BatchStats, error) {
	opt = opt.withDefaults()
	busy := make([]time.Duration, sched.Width(n, opt.Workers))
	start := time.Now()
	st, err := sched.ForStatsCtx(ctx, n, opt.Workers, opt.Schedule, func(i, wk int) {
		t0 := time.Now()
		body(i)
		busy[wk] += time.Since(t0)
	})
	return BatchStats{Sched: st, Busy: busy[:st.Workers], Wall: time.Since(start)}, err
}
