package bem

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"earthing/internal/quad"
)

// The far-field branch of the flat kernel. Between two horizontal elements
// every image of a layered soil sits at the source's horizontal position, so
// the whole image ladder seen from one observation depth zo is a point
// kernel of the squared horizontal distance alone:
//
//	G(ρ²; zo, zs) = Σ_images w / √(ρ² + (zo − (sign·zs + off))²).
//
// The exact path walks that ladder for every (image, Gauss point) of every
// class, and the ladder grows as |K| → 1. A table class — both elements
// horizontal, a layer pair with reflected images, and an inner rule along
// the source that converges (the gate below) — instead reads G from a table
// summed once per node, and integrates it with the class's outer rule (the
// near bit picks it, as on the exact path) and a Gauss rule along the
// source.
//
// Gate: at an outer point with axial offset x0 and perpendicular distance p
// from the source line, the integrand's nearest singularity lies at
// s* = x0 + i·h, h = √(p² + dz²min), where dz²min is the table's smallest
// squared image depth offset. Its Bernstein ellipse about the source has
// semi-major axis A = (|s*| + |s* − l|)/l, the summed distances to the two
// endpoints over the length, and ρ_B = A + √(A² − 1). The inner order is
// the smallest n with ρ_B^(−2n) ≤ 1e-15 at the worst outer point, found by
// comparing A with farInnerA; a class needing more than farInnerMax points
// walks the ladder. The gate also bounds every inner point's ρ² inside the
// table (crossing bars at two depths can put an outer point above the
// source line, ρ² → 0: such a class walks the ladder), and refuses a class
// whose thin-wire radius clamp could bind: the exact path raises a
// perpendicular distance below the conductor radius to the radius, which
// happens for in-line elements at one depth, and the table kernel has no
// clamp.
//
// Table layout: one farTable per (source depth, observation depth) pair of
// the mesh's horizontal elements, and one per source depth observed at the
// earth surface z = 0 (an observation-only depth of layer 1, read by the
// field evaluator: see "Surface potential" below), created on first use in
// the registry of the assembler's Ladder, which assemblers of one model may
// share. Each assembler registers its own depths (initFar) and keeps a slot
// per registered pair that caches the registry's table, so which classes
// and points reach a table is the assembler's own decision; only the table
// objects are shared.
// Each holds one polynomial panel per quarter octave of ρ²: the panel index
// is the top bits of ρ²'s float64 representation (biased exponent and the
// two leading mantissa bits) and the local coordinate u ∈ [−1, 1) is the
// remaining mantissa, so a lookup is one Horner pass with no logarithm or
// square root. A panel is built on first use by Chebyshev interpolation of
// the exact ladder at farNodes points, each summed until two consecutive
// series groups fall below farSeriesTol of the total, or to the end of the
// ladder (MaxGroups, the exact path's own cap). Panels are pure functions of
// (ladder, depth pair, panel index); a worker — of any assembler sharing the
// ladder — that loses the race to publish one adopts the winner's, which is
// bitwise the same, so class matrices stay pure functions of their keys.
//
// Surface potential: at a surface point every image of a horizontal source
// bar is again a point kernel of ρ² alone, G(ρ²; 0, zs), so
// FieldEvaluator.PotentialAt reads a horizontal element's summed ladder from
// its source depth's surface table whenever the observation point, taken as
// the single outer point, passes the same gate (farInner). It integrates
// with the same inner rule: I0 = l·Σ w_h G(ρ_h²), I1 = l·Σ w_h t_h G(ρ_h²),
// V_e = pref·(s0·I0 + (s1 − s0)·I1). The table sums both halves of the
// mirror-symmetric surface ladder, so no mirror ×2 applies. Points the gate
// refuses (straight above or close beside a bar), rods, points below the
// surface and layer pairs without reflected images walk the ladder.
//
// Error budget (per class entry, relative to the class's largest entry):
// the panel polynomial reproduces the summed ladder to ~3e-15 relative
// (worst case the direct term 1/ρ at equal depths, whose singularity at
// ρ² = 0 lies 9 half-widths from every panel); the inner rule's error is of
// order ρ_B^(−2n) ≤ 1e-15 times the integrand's growth on the ellipse.
// Against the converged exact ladder the table classes agree to ~1e-12
// relative (TestFarTableMatchesExactLadder and TestFarTableGateBoundary pin
// 1e-10). A surface potential agrees with the converged walk to ~1e-15
// relative per point (TestSurfaceTableMatchesExactLadder pins 1e-10); the
// walk at the default SeriesTol stops its series early and differs by up
// to ~1e-8 relative, the table does not.

const (
	// farPanelBits is log2 of the panels per octave of ρ².
	farPanelBits = 2
	// farLocalBits are the mantissa bits left below the panel index.
	farLocalBits = 52 - farPanelBits
	// farNodes is the Chebyshev interpolation size of a panel (degree
	// farNodes−1; eval's Horner pass is unrolled for it).
	farNodes = 12
	// farExpLo and farExpHi bound the tabulated ρ² to [2^farExpLo,
	// 2^farExpHi) m²; the gate keeps every inner point of a table class in
	// [farRho2Lo, farRho2Hi), an octave inside at each end for round-off.
	farExpLo  = -30
	farExpHi  = 40
	farRho2Lo = 0x1p-29
	farRho2Hi = 0x1p39
	// farPanels is the number of panel slots of a table.
	farPanels = (farExpHi - farExpLo) << farPanelBits
	// farIdxLo is the panel index (float64 bits >> farLocalBits) of 2^farExpLo.
	farIdxLo = (1023 + farExpLo) << farPanelBits
	// farLocalScale maps the local mantissa bits onto [0, 2).
	farLocalScale = 1.0 / (1 << (farLocalBits - 1))
	// farSeriesTol ends a node's ladder sum after two consecutive groups
	// contribute less than this fraction of the total (2⁻⁵⁵).
	farSeriesTol = 0x1p-55
	// farInnerDigits is ln(1e15): the inner order satisfies
	// ρ_B^(−2n) ≤ 1e-15.
	farInnerDigits = 34.538776394910684
	farInnerMin    = 3
	farInnerMax    = 16
	// farMaxDepths caps the registered horizontal depths, and so the
	// tables, at farMaxDepths² (grids are buried at one or a few depths).
	farMaxDepths = 16
)

// farPanel holds the monomial coefficients of one panel's polynomial in the
// local coordinate u.
type farPanel [farNodes]float64

// farPanelBytes is the resident size of a built panel.
const farPanelBytes = farNodes * 8

// farTable is the tabulated ladder of one (source depth, observation depth)
// pair. Panels are built lazily and shared read-only by all workers of
// every assembler on the ladder.
type farTable struct {
	l        *Ladder
	src, obs int     // the layer pair
	lo, hi   int32   // its series-group range
	zs, zo   float64 // source and observation depths, quantized as in the key
	// dz2min is the smallest squared depth offset (zo − image depth)² of
	// the ladder: the clamp check's floor.
	dz2min float64
	panels [farPanels]atomic.Pointer[farPanel]
}

// farTableBytes is the resident size of a table without its panels.
const farTableBytes = farPanels*8 + 96

// footprint returns the resident bytes of the table and the panels built so
// far.
func (t *farTable) footprint() int64 {
	n := int64(farTableBytes)
	for j := range t.panels {
		if t.panels[j].Load() != nil {
			n += farPanelBytes
		}
	}
	return n
}

// farDepth is one (layer, quantized depth) of a horizontal element.
type farDepth struct {
	layer int
	z     uint64 // math.Float64bits of quantGeom(depth)
}

func cmpFarDepth(a, b farDepth) int {
	if c := cmp.Compare(a.layer, b.layer); c != 0 {
		return c
	}
	return cmp.Compare(a.z, b.z)
}

// farSurface is the earth surface as an observation depth: z = +0 in
// layer 1.
var farSurface = farDepth{1, 0}

// farKey is a table's key in the Ladder's registry.
type farKey struct {
	src, obs farDepth
}

// farKeyBytes is the resident size of a registry entry beside its table: the
// key, the pointer and the map's per-entry overhead.
const farKeyBytes = 64

// table returns the registry's table of a (source, observation) layer and
// depth pair, creating it on first use. The layer pair must have an image
// expansion.
func (l *Ladder) table(src, obs farDepth) *farTable {
	k := farKey{src, obs}
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.tables[k]; t != nil {
		return t
	}
	lo, hi, _ := l.img.pair(src.layer, obs.layer)
	t := &farTable{
		l:   l,
		src: src.layer,
		obs: obs.layer,
		lo:  lo,
		hi:  hi,
		zs:  math.Float64frombits(src.z),
		zo:  math.Float64frombits(obs.z),
	}
	t.dz2min = math.Inf(1)
	for _, im := range l.img.imgs[l.img.grpOff[lo]:l.img.grpOff[hi]] {
		dz := t.zo - (im.sign*t.zs + im.off)
		t.dz2min = math.Min(t.dz2min, dz*dz)
	}
	l.tables[k] = t
	return t
}

// farTables is the assembler's own view of the far-field tables: the
// distinct depths of its horizontal elements, a slot per ordered pair of
// them, and one per depth observed at the surface (farSurface, when it is
// not itself a registered depth). A slot caches the Ladder registry's
// table on first use, so the class loop reads it without a lock.
type farTables struct {
	depths []farDepth
	// complete reports that every horizontal depth is registered, so every
	// class of two horizontal elements reaches its table.
	complete bool
	tabs     []atomic.Pointer[farTable] // [src·len(depths) + obs]
	surf     []atomic.Pointer[farTable] // [src]
}

// initFar registers the depths of the mesh's horizontal elements: all of
// them, or the farMaxDepths shared by the most elements (ties to the lower
// layer and depth), so a mesh with a depth per element cannot ask for a
// table per element pair.
func (a *Assembler) initFar() {
	var ds []farDepth
	for e, el := range a.mesh.Elements {
		if el.Seg.B.Z-el.Seg.A.Z == 0 { // exactly the key's horizontal test
			ds = append(ds, farDepth{a.elemLayer[e], math.Float64bits(quantGeom(el.Seg.A.Z))})
		}
	}
	slices.SortFunc(ds, cmpFarDepth)
	type counted struct {
		d farDepth
		n int
	}
	var cs []counted
	for i, d := range ds {
		if i == 0 || d != ds[i-1] {
			cs = append(cs, counted{d, 0})
		}
		cs[len(cs)-1].n++
	}
	a.far.complete = len(cs) <= farMaxDepths
	if len(cs) > farMaxDepths {
		slices.SortStableFunc(cs, func(x, y counted) int { return cmp.Compare(y.n, x.n) })
		cs = cs[:farMaxDepths]
		slices.SortFunc(cs, func(x, y counted) int { return cmpFarDepth(x.d, y.d) })
	}
	a.far.depths = make([]farDepth, len(cs))
	for i, c := range cs {
		a.far.depths[i] = c.d
	}
	a.far.tabs = make([]atomic.Pointer[farTable], len(cs)*len(cs))
	a.far.surf = make([]atomic.Pointer[farTable], len(cs))
}

// footprint returns the resident bytes of the registered depths and the
// slots; the tables they point at are the Ladder's (Ladder.footprint).
func (f *farTables) footprint() int64 {
	return int64(len(f.depths))*16 + int64(len(f.tabs)+len(f.surf))*8
}

// farTable returns the table of a (source, observation) layer and depth pair
// from the ladder's registry, or nil when the source depth is not
// registered or the observation depth is neither registered nor farSurface.
func (a *Assembler) farTable(src, obs int, zs, zo uint64) *farTable {
	f := &a.far
	i, ok := slices.BinarySearchFunc(f.depths, farDepth{src, zs}, cmpFarDepth)
	if !ok {
		return nil
	}
	var slot *atomic.Pointer[farTable]
	if j, ok := slices.BinarySearchFunc(f.depths, farDepth{obs, zo}, cmpFarDepth); ok {
		slot = &f.tabs[i*len(f.depths)+j]
	} else if (farDepth{obs, zo}) == farSurface {
		slot = &f.surf[i]
	} else {
		return nil
	}
	if t := slot.Load(); t != nil {
		return t
	}
	t := a.lad.table(farDepth{src, zs}, farDepth{obs, zo})
	slot.Store(t)
	return t
}

// eval returns G(x) for a squared horizontal distance x inside the table's
// range, building the panel on first use.
func (t *farTable) eval(x float64) float64 {
	b := math.Float64bits(x)
	idx := b >> farLocalBits
	p := t.panels[idx-farIdxLo].Load()
	if p == nil {
		p = t.build(idx)
	}
	u := float64(b&(1<<farLocalBits-1))*farLocalScale - 1
	return ((((((((((p[11]*u+p[10])*u+p[9])*u+p[8])*u+p[7])*u+p[6])*u+p[5])*u+p[4])*u+p[3])*u+p[2])*u+p[1])*u + p[0]
}

// build interpolates panel idx from the exact ladder and publishes it.
func (t *farTable) build(idx uint64) *farPanel {
	xlo := math.Float64frombits(idx << farLocalBits)
	w := math.Float64frombits(idx>>farPanelBits<<52) * (1.0 / (1 << farPanelBits))
	var xs [farNodes]float64
	for j, u := range farCheb.nodes {
		xs[j] = xlo + (u+1)*0.5*w
	}
	fs := t.nodes(&xs)
	var c [farNodes]float64
	for j, fj := range fs {
		for k := range c {
			c[k] += fj * farCheb.cos[k][j]
		}
	}
	p := new(farPanel)
	for k, ck := range c {
		for i, m := range farCheb.mono[k] {
			p[i] += ck * m
		}
	}
	t.l.builds.Add(1)
	slot := &t.panels[idx-farIdxLo]
	if slot.CompareAndSwap(nil, p) {
		return p
	}
	return slot.Load()
}

// nodes sums the ladder at the squared horizontal distances xs[j] of a
// panel's nodes (compensated: the series is long and, for K < 0,
// alternating). One pass over each group's images feeds one sum per node;
// each node keeps the add order and stop rule of a sum of its own (two
// consecutive groups below farSeriesTol of its total, or the end of the
// ladder), so its result does not depend on the other nodes.
func (t *farTable) nodes(xs *[farNodes]float64) (f [farNodes]float64) {
	var acc [farNodes]quad.KahanSum
	var before [farNodes]float64
	var small [farNodes]int
	// live[:nl] are the nodes still summing, in node order.
	var live [farNodes]int
	for j := range live {
		live[j] = j
	}
	nl := farNodes
	for g := t.lo; g < t.hi && nl > 0; g++ {
		for _, j := range live[:nl] {
			before[j] = acc[j].Sum()
		}
		for _, im := range t.l.img.group(g) {
			dz := t.zo - (im.sign*t.zs + im.off)
			dz2 := dz * dz
			for _, j := range live[:nl] {
				acc[j].Add(im.w / math.Sqrt(xs[j]+dz2))
			}
		}
		k := 0
		for _, j := range live[:nl] {
			if s := acc[j].Sum(); math.Abs(s-before[j]) <= farSeriesTol*math.Abs(s) {
				if small[j]++; small[j] >= 2 {
					continue
				}
			} else {
				small[j] = 0
			}
			live[k] = j
			k++
		}
		nl = k
	}
	for j := range f {
		f[j] = acc[j].Sum()
	}
	return f
}

// farCheb holds the Chebyshev interpolation constants of a panel: the nodes
// u_j = cos(π(j+½)/N), the scaled transform cos[k][j] = (2/N)·cos(πk(j+½)/N)
// (halved for k = 0) giving the Chebyshev coefficients, and mono[k], the
// monomial coefficients of T_k.
var farCheb = func() (c struct {
	nodes [farNodes]float64
	cos   [farNodes][farNodes]float64
	mono  [farNodes][farNodes]float64
}) {
	const n = farNodes
	for j := range c.nodes {
		c.nodes[j] = math.Cos(math.Pi * (float64(j) + 0.5) / n)
		for k := 0; k < n; k++ {
			v := 2.0 / n * math.Cos(math.Pi*float64(k)*(float64(j)+0.5)/n)
			if k == 0 {
				v /= 2
			}
			c.cos[k][j] = v
		}
	}
	c.mono[0][0] = 1
	c.mono[1][1] = 1
	for k := 2; k < n; k++ {
		for i := 0; i < n-1; i++ {
			c.mono[k][i+1] += 2 * c.mono[k-1][i]
		}
		for i := 0; i < n; i++ {
			c.mono[k][i] -= c.mono[k-2][i]
		}
	}
	return c
}()

// farRule is an inner Gauss–Legendre rule on [0, 1]: nodes t and weights w
// (Σw = 1).
type farRule struct {
	t, w []float64
}

// farRules[n] is the n-point inner rule, for farInnerMin ≤ n ≤ farInnerMax.
var farRules = func() (r [farInnerMax + 1]farRule) {
	for n := farInnerMin; n <= farInnerMax; n++ {
		q := quad.GaussLegendre(n)
		r[n] = farRule{t: make([]float64, n), w: make([]float64, n)}
		for i, x := range q.X {
			r[n].t[i] = 0.5 * (x + 1)
			r[n].w[i] = 0.5 * q.W[i]
		}
	}
	return r
}()

// farInnerA[n] is the smallest Bernstein semi-major axis A at which the
// n-point inner rule meets ρ_B^(−2n) ≤ 1e-15: ρ_B = e^(farInnerDigits/2n),
// A = (ρ_B + 1/ρ_B)/2.
var farInnerA = func() (a [farInnerMax + 1]float64) {
	for n := farInnerMin; n <= farInnerMax; n++ {
		rho := math.Exp(farInnerDigits / (2 * float64(n)))
		a[n] = 0.5 * (rho + 1/rho)
	}
	return a
}()

// farInner is the gate at one outer point: the order of the inner rule
// along a source of length l that converges for an outer point at axial
// offset x0 from the source start and squared perpendicular distance p2
// from its line, on a table whose smallest squared image depth offset is
// dz2min, or 0 when the point is refused — the rule would need more than
// farInnerMax points, an inner point's ρ² would leave the table's range,
// or p2 ≤ clamp (the thin-wire radius clamp of the exact path could bind).
func farInner(x0, p2, l, dz2min, clamp float64) int {
	if clamp > 0 && p2 <= clamp {
		return 0
	}
	// The inner points' ρ² range: p² plus the squared axial distance to
	// the nearest and farthest points of the source.
	e0, e1 := x0*x0, (x0-l)*(x0-l)
	lo2 := p2
	if x0 < 0 {
		lo2 += e0
	} else if x0 > l {
		lo2 += e1
	}
	if lo2 < farRho2Lo || p2+max(e0, e1) >= farRho2Hi {
		return 0
	}
	h2 := p2 + dz2min
	semi := (math.Sqrt(e0+h2) + math.Sqrt(e1+h2)) / l
	if semi < farInnerA[farInnerMax] {
		return 0
	}
	n := farInnerMin
	for semi < farInnerA[n] {
		n++
	}
	return n
}

// farClass evaluates the class of key through the far-field branch into out
// and returns the inner rule order it used, or returns 0, writing nothing,
// when the class does not pass the gate. lo, hi is the layer pair's
// series-group range.
func (a *Assembler) farClass(key *PairKey, lo, hi int32, out []float64, s *pairScratch) int {
	hdr := key[kwHeader]
	if hi-lo < 2 || key[kwSrcDZ] != 0 || key[kwObsDZ] != 0 {
		return 0
	}
	src, obs := int(hdr>>1&0xff), int(hdr>>9&0xff)
	t := s.farLast
	if t == nil || t.src != src || t.obs != obs || math.Float64bits(t.zs) != key[kwSrcZ] || math.Float64bits(t.zo) != key[kwObsZ] {
		if t = a.farTable(src, obs, key[kwSrcZ], key[kwObsZ]); t == nil {
			return 0
		}
		s.farLast = t
	}
	f := func(w int) float64 { return math.Float64frombits(key[w]) }
	dx, dy := f(kwSrcDX), f(kwSrcDY)
	ox, oy := f(kwObsX), f(kwObsY)
	bx, by := f(kwObsDX), f(kwObsDY)
	l := math.Sqrt(dx*dx + dy*dy)
	tx, ty := dx/l, dy/l
	gpT, gpW, gpShape := a.gpT, a.gpW, a.gpShape
	if hdr&1 != 0 {
		gpT, gpW, gpShape = a.gpTN, a.gpWN, a.gpShapeN
	}

	// The gate, per outer point; the class takes the largest inner order.
	// clamp is the thin-wire clamp check's floor: every image's
	// perpendicular distance from the source line must clear the conductor
	// radius with margin.
	clamp := 2*f(kwRadius2) - t.dz2min
	n := 0
	for _, u := range gpT {
		x, y := ox+u*bx, oy+u*by
		p := x*ty - y*tx
		ni := farInner(x*tx+y*ty, p*p, l, t.dz2min, clamp)
		if ni == 0 {
			return 0
		}
		n = max(n, ni)
	}

	rule := farRules[n]
	// Inner points along the source axis.
	sx, sy := s.innerX[:n], s.innerY[:n]
	for h, u := range rule.t {
		sx[h], sy[h] = u*l*tx, u*l*ty
	}
	lenB := math.Sqrt(bx*bx + by*by)
	for i := range out {
		out[i] = 0
	}
	for g, u := range gpT {
		x, y := ox+u*bx, oy+u*by
		var i0, i1 float64
		for h, wh := range rule.w {
			ex, ey := x-sx[h], y-sy[h]
			v := wh * t.eval(ex*ex+ey*ey)
			i0 += v
			i1 += v * rule.t[h]
		}
		i0 *= l
		i1 *= l
		wl := gpW[g] * lenB
		if a.linear {
			in0 := i0 - i1
			w0, w1 := wl*gpShape[g][0], wl*gpShape[g][1]
			out[0] += w0 * in0
			out[1] += w0 * i1
			out[2] += w1 * in0
			out[3] += w1 * i1
		} else {
			out[0] += wl * gpShape[g][0] * i0
		}
	}
	pref := 1 / (4 * math.Pi * a.model.Conductivity(src))
	for i := range out {
		out[i] *= pref
	}
	return n
}
