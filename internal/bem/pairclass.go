package bem

import (
	"context"
	"math"
	"math/bits"

	"earthing/internal/faultinject"
	"earthing/internal/geom"
)

// Pair classes. A horizontally layered soil is invariant under every
// horizontal isometry — x → −x, y → −y, x ↔ y — and under translation, and a
// grounding lattice repeats the same relative pair geometry thousands of
// times. The flat kernel consumes an ordered pair (β, α) only through the
// source element's axis, depth and radius, the test element's axis and its
// offset from the source, and the layer pair. Rounding those inputs to
// geomKeyBits (quantGeom) and bringing them to a canonical pose gives every
// pair a class signature (PairKey); the kernel evaluated on the canonical
// geometry the key describes is an exact function of the key, so each class
// is evaluated once and its matrix is mapped back onto every member by
// swapping rows and columns (PairFlip). Dense assembly (MatrixCtx, which
// the sweep runs per job too) and the H-matrix entry generator both key on
// this one form.
//
// The canonical pose is chosen among the eight isometries of the dihedral
// group D4. The doubled horizontal offset v between the two midpoints picks
// the candidates: flips that bring v into the closed first quadrant and the
// swap that makes v.x ≥ v.y. Only ties (v on an axis or the diagonal) leave
// more than one candidate; among those the smallest key (then the smallest
// flip) wins. Every element's orientation is normalized within each
// candidate: the axis B−A is reversed when its first non-zero quantized
// component in (z, x, y) order is negative. The pair swap (β, α) ↔ (α, β) is
// not folded in: the outer Gauss rule makes the Galerkin pair asymmetric at
// the level of quadrature error, so a swapped pair is not the same number.
//
// Negation and coordinate swaps are exact in floating point and quantGeom is
// odd, so a mirrored or rotated-by-90° copy of a mesh produces bitwise the
// same keys, flips and matrices.

// geomKeyBits is the mantissa precision a class key keeps of every geometric
// input. Rounding to 2⁻⁴² relative perturbs elemental integrals by ~1e-13
// relative — below the 1e-12·max|A| entry budget the oracle tests pin —
// while the rounding cells stay wide enough that lattice translates and
// mirror images of one pair, whose coordinates differ by round-off, collapse
// onto one key.
const geomKeyBits = 42

// quantGeom rounds x to geomKeyBits significant mantissa bits (round half
// away from zero, so quantGeom(−x) = −quantGeom(x)).
func quantGeom(x float64) float64 {
	if x == 0 {
		return 0 // drop the sign of −0 so both zeros share one key
	}
	const drop = 52 - geomKeyBits
	b := math.Float64bits(x)
	b += 1 << (drop - 1)
	b &^= 1<<drop - 1
	return math.Float64frombits(b)
}

// PairKey is the class signature of an ordered element pair: the layer pair
// and outer-rule choice, then the quantized canonical geometry (see the
// kw* word layout). It is comparable and may key a map.
type PairKey [pairKeyWords]uint64

// PairKey word layout. Floating-point words hold math.Float64bits of the
// quantized value, in the canonical pose with the source start at the
// horizontal origin.
const (
	kwHeader  = iota // near rule (bit 0) | source layer<<1 | test layer<<9
	kwRadius2        // source conductor radius², unquantized
	kwSrcZ           // source start depth
	kwSrcDX          // source axis B−A: x, y, z
	kwSrcDY
	kwSrcDZ
	kwObsX // test start: horizontal offset from the source start, depth
	kwObsY
	kwObsZ
	kwObsDX // test axis B−A: x, y, z
	kwObsDY
	kwObsDZ
	pairKeyWords
)

// exactClass marks the header word of a class that has no canonical
// evaluation (the quadrature fallback): such a class has
// exactly one member, whose (β, α) sit in the next two words.
const exactClass = math.MaxUint64

// PairFlip maps a class matrix onto one member pair: flipSource swaps
// columns (the member's source element runs against the canonical one),
// flipTest swaps rows (likewise for the test element). Constant elements
// (k = 1) never flip.
type PairFlip uint8

const (
	flipSource PairFlip = 1 << iota
	flipTest
)

// Apply writes the member's k×k elemental matrix, derived from the class
// matrix src, into dst (which must not alias src).
func (f PairFlip) Apply(k int, src, dst []float64) {
	if f == 0 || k == 1 {
		copy(dst[:k*k], src)
		return
	}
	c, r := int(f&flipSource), int(f&flipTest)>>1
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			dst[j*2+i] = src[(j^r)*2+(i^c)]
		}
	}
}

// PairClass writes the class signature of the ordered pair (beta, alpha)
// into key and returns the flip that maps the class matrix (ClassMatrix)
// onto the pair. It returns ok = false when the pair has no canonical
// evaluation — a layer pair without an image expansion (quadrature
// fallback) — and the pair must be evaluated on its own with PairMatrix. It
// allocates nothing.
func (a *Assembler) PairClass(beta, alpha int, key *PairKey) (PairFlip, bool) {
	src, obs := a.elemLayer[alpha], a.elemLayer[beta]
	if _, _, ok := a.ladder.pair(src, obs); !ok {
		return 0, false
	}
	elA, elB := &a.mesh.Elements[alpha], &a.mesh.Elements[beta]
	sa, sb := &elA.Seg, &elB.Seg
	hdr := uint64(src)<<1 | uint64(obs)<<9
	// The doubled midpoint offset: orientation-free, and every isometry
	// maps it exactly.
	mx := (sb.A.X + sb.B.X) - (sa.A.X + sa.B.X)
	my := (sb.A.Y + sb.B.Y) - (sa.A.Y + sa.B.Y)
	// Near pairs (self, touching, adjacent) get the refined outer rule; the
	// choice is made on the raw geometry, exactly as the per-pair oracle
	// makes it, and is part of the key. Segments whose midpoints lie
	// farther apart than their summed lengths (with a margin far above
	// round-off) are at least half that sum apart, so the closest-point
	// computation is skipped for them without changing any decision.
	la, lb := sa.Length(), sb.Length()
	if mz := (sb.A.Z + sb.B.Z) - (sa.A.Z + sa.B.Z); beta == alpha ||
		mx*mx+my*my+mz*mz <= 4.000001*(la+lb)*(la+lb) && sb.DistToSegment(*sa) < 0.5*(lb+la) {
		hdr |= 1
	}
	vx, vy := quantGeom(mx), quantGeom(my)
	ux, uy := math.Abs(vx), math.Abs(vy)
	var cand PairKey
	best := PairFlip(0)
	found := false
	for iso := isometry(0); iso < 8; iso++ {
		fx, fy, sw := iso&isoFlipX != 0, iso&isoFlipY != 0, iso&isoSwap != 0
		if fx && vx > 0 || !fx && vx < 0 || fy && vy > 0 || !fy && vy < 0 ||
			sw && ux > uy || !sw && ux < uy {
			continue
		}
		if !found {
			best, found = canonicalPose(key, hdr, elA.Radius, sa.A, sa.B, sb.A, sb.B, iso), true
			continue
		}
		flip := canonicalPose(&cand, hdr, elA.Radius, sa.A, sa.B, sb.A, sb.B, iso)
		if cand.less(key) || cand == *key && flip < best {
			*key, best = cand, flip
		}
	}
	if a.k == 1 {
		best = 0
	}
	return best, true
}

// isometry is one element of D4 acting on horizontal coordinates: optional
// sign flips of x and y, then an optional x ↔ y swap.
type isometry uint8

const (
	isoFlipX isometry = 1 << iota
	isoFlipY
	isoSwap
)

// apply maps a horizontal vector; every operation is exact.
func (t isometry) apply(x, y float64) (float64, float64) {
	if t&isoFlipX != 0 {
		x = -x
	}
	if t&isoFlipY != 0 {
		y = -y
	}
	if t&isoSwap != 0 {
		x, y = y, x
	}
	return x, y
}

// canonicalPose writes the key of the pair (source a0→a1, test b0→b1) under
// isometry t with both orientations normalized, and returns the flip that
// records which elements were reversed.
func canonicalPose(key *PairKey, hdr uint64, radius float64, a0, a1, b0, b1 geom.Vec3, t isometry) PairFlip {
	var flip PairFlip
	sx, sy, sz, rev := orientedAxis(a0, a1, t)
	if rev {
		a0 = a1
		flip |= flipSource
	}
	ox, oy, oz, rev := orientedAxis(b0, b1, t)
	if rev {
		b0 = b1
		flip |= flipTest
	}
	px, py := t.apply(b0.X-a0.X, b0.Y-a0.Y)
	key[kwHeader] = hdr
	key[kwRadius2] = math.Float64bits(radius * radius)
	key[kwSrcZ] = math.Float64bits(quantGeom(a0.Z))
	key[kwSrcDX], key[kwSrcDY], key[kwSrcDZ] = math.Float64bits(sx), math.Float64bits(sy), math.Float64bits(sz)
	key[kwObsX], key[kwObsY] = math.Float64bits(quantGeom(px)), math.Float64bits(quantGeom(py))
	key[kwObsZ] = math.Float64bits(quantGeom(b0.Z))
	key[kwObsDX], key[kwObsDY], key[kwObsDZ] = math.Float64bits(ox), math.Float64bits(oy), math.Float64bits(oz)
	return flip
}

// orientedAxis returns the quantized axis p1−p0 under t, reversed when its
// first non-zero component in (z, x, y) order is negative, and whether it
// was reversed. Reversal negates quantized values, which is exact.
func orientedAxis(p0, p1 geom.Vec3, t isometry) (x, y, z float64, rev bool) {
	dx, dy := t.apply(p1.X-p0.X, p1.Y-p0.Y)
	x, y, z = quantGeom(dx), quantGeom(dy), quantGeom(p1.Z-p0.Z)
	if z < 0 || z == 0 && (x < 0 || x == 0 && y < 0) {
		// 0 − v rather than −v, so a zero component stays +0.
		return 0 - x, 0 - y, 0 - z, true
	}
	return x, y, z, false
}

// less orders keys lexicographically by word.
func (k *PairKey) less(o *PairKey) bool {
	for i := range k {
		if k[i] != o[i] {
			return k[i] < o[i]
		}
	}
	return false
}

// hash mixes the key words: a multiply-rotate per word and the splitmix64
// finalizer, for the ClassIndex's power-of-two table.
func (k *PairKey) hash() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range k {
		h = bits.RotateLeft64((h^w)*0xbf58476d1ce4e5b9, 31)
	}
	h ^= h >> 30
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// ColumnScratch is the per-worker scratch of ClassMatrix and PairMatrix
// (the H-matrix entry generator's evaluations). A scratch must not be
// shared between concurrent workers; allocate one per worker with
// NewColumnScratch.
type ColumnScratch struct {
	s *pairScratch
}

// NewColumnScratch allocates the per-worker buffers of ClassMatrix and
// PairMatrix.
func (a *Assembler) NewColumnScratch() *ColumnScratch {
	return &ColumnScratch{s: a.newScratch()}
}

// PairMatrix computes the elemental matrix of the ordered element pair
// (beta, alpha) into out (row-major k×k, out[j·k+i] = ∫_β w_j ∫_α N_i G)
// with exactly the arithmetic of the MatrixCtx pair loop: the pair's class
// matrix under its flip, or the pair's own evaluation when it has no class.
// cs must not be shared between concurrent workers.
func (a *Assembler) PairMatrix(beta, alpha int, out []float64, cs *ColumnScratch) {
	var key PairKey
	if flip, ok := a.PairClass(beta, alpha, &key); ok {
		a.classMatrix(&key, cs.s.elemental, cs.s)
		flip.Apply(a.k, cs.s.elemental, out)
		return
	}
	a.pairMatrixExact(beta, alpha, out, cs.s)
}

// ClassMatrix evaluates the flat kernel on the canonical geometry of a class
// signature produced by PairClass, writing the class matrix (row-major k×k)
// into out. The result is an exact function of the key. cs must not be
// shared between concurrent workers.
func (a *Assembler) ClassMatrix(key *PairKey, out []float64, cs *ColumnScratch) {
	a.classMatrix(key, out, cs.s)
}

// classMatrix evaluates a canonical class: far classes (see farfield.go)
// from the tabulated ladder, every other class by walking the ladder.
func (a *Assembler) classMatrix(key *PairKey, out []float64, s *pairScratch) {
	hdr := key[kwHeader]
	lo, hi, _ := a.ladder.pair(int(hdr>>1&0xff), int(hdr>>9&0xff))
	if a.farClass(key, lo, hi, out, s) > 0 {
		s.far++
		return
	}
	a.ladderClassMatrix(key, lo, hi, out, s)
}

// ladderClassMatrix evaluates a class by the exact image ladder: the
// production path of every class the far-field gate refuses, and the
// far branch's test oracle.
func (a *Assembler) ladderClassMatrix(key *PairKey, lo, hi int32, out []float64, s *pairScratch) {
	f := func(w int) float64 { return math.Float64frombits(key[w]) }
	hdr := key[kwHeader]
	src := int(hdr >> 1 & 0xff)
	dx, dy, dz := f(kwSrcDX), f(kwSrcDY), f(kwSrcDZ)
	l := math.Sqrt(dx*dx + dy*dy + dz*dz)
	inv := 1 / l
	pe := planElem{
		pref:    1 / (4 * math.Pi * a.model.Conductivity(src)),
		radius2: f(kwRadius2),
		l:       l,
		invL:    inv,
		tx:      dx * inv,
		ty:      dy * inv,
		tz:      dz * inv,
		az0:     f(kwSrcZ),
		grpLo:   lo,
		grpHi:   hi,
	}

	gpT, gpW, gpShape := a.gpT, a.gpW, a.gpShape
	if hdr&1 != 0 {
		gpT, gpW, gpShape = a.gpTN, a.gpWN, a.gpShapeN
	}
	ox, oy, oz := f(kwObsX), f(kwObsY), f(kwObsZ)
	bx, by, bz := f(kwObsDX), f(kwObsDY), f(kwObsDZ)
	lenB := math.Sqrt(bx*bx + by*by + bz*bz)
	ng := len(gpT)
	hxy, dxy2, chiZ := s.hxy[:ng], s.dxy2[:ng], s.chiZ[:ng]
	wsh0, wsh1 := s.wsh0[:ng], s.wsh1[:ng]
	// Hoist the observation geometry and the weight×shape products out of
	// flatSeries' image loop: images are affine in z only, so every image
	// sees the same (hxy, dxy², z) per Gauss point.
	for g, t := range gpT {
		// Test Gauss point relative to the source start, with the
		// arithmetic of Segment.Point.
		x, y := ox+t*bx, oy+t*by
		hxy[g] = x*pe.tx + y*pe.ty
		dxy2[g] = x*x + y*y
		chiZ[g] = oz + t*bz
		wl := gpW[g] * lenB
		wsh0[g] = wl * gpShape[g][0]
		wsh1[g] = wl * gpShape[g][1]
	}
	for i := range out {
		out[i] = 0
	}
	a.flatSeries(&pe, ng, out, s)
}

// pairClasses is the pair → class table of one assembly. Each class is
// owned by one column — the column of the first member met scanning rows α
// ascending, each row's columns β ascending — and classes are numbered in
// the loop's column order (β from M−1 down to 0), so the classes a column
// owns are contiguous and columns own disjoint class ranges. Scanning by
// rows spreads ownership over the columns: in a lattice the classes of
// row 0 alone land one or two per column, where a column-major scan would
// hand nearly every class to the first columns the loop meets and leave the
// parallel loop one long column per worker.
type pairClasses struct {
	// of[β(β+1)/2 + α] = class<<2 | flip of the pair (β, α).
	of []uint32
	// colOff[i] is the first class owned by column β = M−1−i; a
	// trailing entry closes the last column.
	colOff []int32
	// keys[c] is class c's signature (exactClass header for pairs without
	// a canonical evaluation).
	keys []PairKey
}

// columnClasses returns the class range [lo, hi) column beta owns.
func (cl *pairClasses) columnClasses(beta int) (lo, hi int) {
	i := len(cl.colOff) - 2 - beta
	return int(cl.colOff[i]), int(cl.colOff[i+1])
}

// classify builds the pair → class table, observing ctx once per row.
func (a *Assembler) classify(ctx context.Context) (*pairClasses, error) {
	m := len(a.mesh.Elements)
	of := make([]uint32, a.NumPairs())
	var owner []int32 // per class in scan order: the owning column
	var set ClassIndex
	var key PairKey
	for alpha := 0; alpha < m; alpha++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for beta := alpha; beta < m; beta++ {
			flip, ok := a.PairClass(beta, alpha, &key)
			var c int32
			if ok {
				c, _ = set.Intern(&key)
			} else {
				c = set.add(&PairKey{exactClass, uint64(beta), uint64(alpha)})
			}
			if int(c) == len(owner) {
				owner = append(owner, int32(beta))
			}
			of[beta*(beta+1)/2+alpha] = uint32(c)<<2 | uint32(flip)
		}
	}

	// Renumber by owning column in loop order (counting sort, stable in
	// scan order within a column).
	cl := &pairClasses{of: of, colOff: make([]int32, m+1), keys: make([]PairKey, set.Len())}
	for _, beta := range owner {
		cl.colOff[m-int(beta)]++
	}
	for i := 0; i < m; i++ {
		cl.colOff[i+1] += cl.colOff[i]
	}
	next := append([]int32(nil), cl.colOff[:m]...)
	renum := make([]uint32, set.Len())
	for c, beta := range owner {
		i := m - 1 - int(beta)
		renum[c] = uint32(next[i])
		cl.keys[next[i]] = *set.key(int32(c))
		next[i]++
	}
	for p, v := range of {
		of[p] = renum[v>>2]<<2 | v&3
	}
	return cl, nil
}

// ClassIndex is an open-addressing (linear probing) index of class keys:
// the class table of MatrixCtx's classification and the H-matrix filler's
// class cache. A slot holds the key's hash in its high 32 bits and class+1
// in its low 32 (0 marks empty), so probes compare full keys only on a hash
// match. Classes are numbered in insertion order; their keys live in
// fixed-size chunks, so growing the index never copies a key. The zero
// value is an empty index; it is not safe for concurrent use.
type ClassIndex struct {
	slots   []uint64
	chunks  [][]PairKey // classChunk keys each; class c is chunks[c/classChunk][c%classChunk]
	n       int         // classes
	indexed int         // classes in slots (exact classes are not)
}

// classChunk is the number of keys per ClassIndex chunk (96 KiB).
const classChunk = 1024

// Len returns the number of classes.
func (x *ClassIndex) Len() int { return x.n }

// key returns class c's key.
func (x *ClassIndex) key(c int32) *PairKey {
	return &x.chunks[c/classChunk][c%classChunk]
}

// Find returns the class of key and whether it is present.
func (x *ClassIndex) Find(key *PairKey) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	return x.find(key, key.hash())
}

func (x *ClassIndex) find(key *PairKey, h uint64) (int32, bool) {
	tag := h &^ (1<<32 - 1)
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return 0, false
		}
		if c := int32(v&(1<<32-1)) - 1; v&^(1<<32-1) == tag && *x.key(c) == *key {
			return c, true
		}
	}
}

// Intern returns the class of key, adding it as a new class (added = true)
// when absent.
func (x *ClassIndex) Intern(key *PairKey) (c int32, added bool) {
	if len(x.slots) == 0 {
		x.slots = make([]uint64, 1024)
	}
	h := key.hash()
	if c, ok := x.find(key, h); ok {
		return c, false
	}
	c = x.add(key)
	if x.indexed++; 2*x.indexed > len(x.slots) {
		x.slots = make([]uint64, 2*len(x.slots))
		for j := int32(0); j < int32(x.n); j++ {
			if k := x.key(j); k[kwHeader] != exactClass {
				x.put(k.hash(), j)
			}
		}
	} else {
		x.put(h, c)
	}
	return c, true
}

// add stores key as the next class without indexing it: Intern's insert,
// and classify's exactClass placeholder of a pair without a canonical
// evaluation, which no other pair shares.
func (x *ClassIndex) add(key *PairKey) int32 {
	if x.n%classChunk == 0 {
		x.chunks = append(x.chunks, make([]PairKey, 0, classChunk))
	}
	last := &x.chunks[len(x.chunks)-1]
	*last = append(*last, *key)
	x.n++
	return int32(x.n - 1)
}

func (x *ClassIndex) put(h uint64, c int32) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = h&^(1<<32-1) | uint64(c+1)
}

// evalClass computes class c's elemental matrix into out: canonical classes
// through the flat kernel on their key's geometry, exact ones on their only
// member. beta is the column evaluating the class (the fault-hook index).
func (a *Assembler) evalClass(cl *pairClasses, c, beta int, out []float64, s *pairScratch) {
	key := &cl.keys[c]
	if key[kwHeader] == exactClass {
		a.pairMatrixExact(int(key[1]), int(key[2]), out, s)
	} else {
		a.classMatrix(key, out, s)
	}
	faultinject.Fire(faultinject.AssemblyPair, beta, out)
}
