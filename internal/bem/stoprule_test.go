package bem

import (
	"math"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/quad"
	"earthing/internal/soil"
)

// sigmaWeightedWalk is the ladder walk of PotentialAt under the stop rule
// it had before the column form: it stops after two consecutive series
// groups whose σ-weighted sum w·(i0·s0 + i1·ds) falls below SeriesTol of the
// element's largest running σ-weighted total. Every element walks (no
// surface tables): the oracle TestColumnStopRuleNoWorse compares the column
// walk's stop rule against.
func sigmaWeightedWalk(a *Assembler, x geom.Vec3, sigma []float64) float64 {
	p := newFieldEvaluator(a).plan(a.model.LayerOf(math.Max(x.Z, 0)))
	imgs, grpOff := a.ladder.imgs, a.ladder.grpOff
	surface := x.Z == 0 && a.ladder.mirror
	var total quad.KahanSum
	for ei := range p.elems {
		pe := &p.elems[ei]
		s0 := sigma[pe.dof0]
		var ds float64
		if a.linear {
			ds = sigma[pe.dof1] - s0
		}
		dx, dy := x.X-pe.ax, x.Y-pe.ay
		hxy := dx*pe.tx + dy*pe.ty
		dxy2 := dx*dx + dy*dy
		var accum, maxAccum float64
		smallGroups := 0
		for g := pe.grpLo; g < pe.grpHi; g++ {
			var gsum float64
			for _, im := range imgs[grpOff[g]:grpOff[g+1]] {
				if surface && im.sign < 0 {
					continue
				}
				dz := x.Z - (im.sign*pe.az0 + im.off)
				pp := hxy + im.sign*pe.tz*dz
				rho2 := max(dxy2+dz*dz-pp*pp, pe.radius2)
				q := pe.l - pp
				r0 := math.Sqrt(rho2 + pp*pp)
				r1 := math.Sqrt(rho2 + q*q)
				i0 := logI0(pp, q, r0, r1, rho2)
				i1 := (r1 - r0 + pp*i0) * pe.invL
				gsum += im.w * (i0*s0 + i1*ds)
			}
			accum += gsum
			maxAccum = math.Max(maxAccum, math.Abs(accum))
			if math.Abs(gsum) <= a.opt.SeriesTol*maxAccum {
				if smallGroups++; smallGroups >= 2 {
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

// TestColumnStopRuleNoWorse is the oracle of the column walk's stop rule:
// on the surface-table fixtures and a rod-heavy design candidate, at the
// default SeriesTol, every element walking the ladder, the column walk's
// worst per-point deviation from the walk at a converged SeriesTol is no
// worse than the σ-weighted rule's, and both stay within the 1e-7 the
// default tolerance promises.
func TestColumnStopRuleNoWorse(t *testing.T) {
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.008}, []float64{1.2, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-8
	design := soil.NewTwoLayer(0.005, 0.016, 1.3)
	cases := []struct {
		name  string
		mesh  func(testing.TB) *grid.Mesh
		model soil.Model
		step  float64
	}{
		{"design-3x3", func(t testing.TB) *grid.Mesh { return designCandidate(t, 3, 8, 1.3) }, design, 5},
		{"design-5x5", func(t testing.TB) *grid.Mesh { return designCandidate(t, 5, 8, 1.3) }, design, 5},
		{"rods-2x2", func(t testing.TB) *grid.Mesh { return designCandidate(t, 2, 8, 1.3) }, design, 4},
		{"K+0.5", func(t testing.TB) *grid.Mesh { return designCandidate(t, 4, 4, 1.0) }, soil.NewTwoLayer(0.015, 0.005, 1.0), 4},
		{"three-layer", func(t testing.TB) *grid.Mesh { return designCandidate(t, 4, 4, 1.2, 3.2) }, ml, 4},
		{"fig54-balaidos-B", balaidosMesh, soil.NewTwoLayer(0.0025, 0.020, 0.7), 0},
	}
	for _, c := range cases {
		m := c.mesh(t)
		a, err := New(m, c.model, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		conv, err := New(m, c.model, Options{Workers: 2, SeriesTol: convergedTol})
		if err != nil {
			t.Fatal(err)
		}
		sigma := solvedSigma(t, a)
		pts := fig54Points(m, 28, 22)
		if c.step > 0 {
			pts = surfaceRaster(m, c.step)
		}
		column, converged := walkEvaluator(a), walkEvaluator(conv)
		var worstColumn, worstSigma float64
		for _, x := range pts {
			want := converged.PotentialAt(x, sigma)
			worstColumn = math.Max(worstColumn, math.Abs(column.PotentialAt(x, sigma)-want)/math.Abs(want))
			worstSigma = math.Max(worstSigma, math.Abs(sigmaWeightedWalk(a, x, sigma)-want)/math.Abs(want))
		}
		if worstColumn > worstSigma {
			t.Errorf("%s: column stop rule deviates %.3g relative from the converged walk, the σ-weighted rule %.3g", c.name, worstColumn, worstSigma)
		}
		if worstSigma > 1e-7 {
			t.Errorf("%s: σ-weighted stop rule deviates %.3g relative from the converged walk", c.name, worstSigma)
		}
		t.Logf("%s: %d points, worst rel deviation from the converged walk: column rule %.3g, σ-weighted rule %.3g", c.name, len(pts), worstColumn, worstSigma)
	}
}
