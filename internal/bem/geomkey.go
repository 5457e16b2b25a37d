package bem

import (
	"encoding/binary"
	"math"
)

// Geometric pair signatures. Grounding grids are dominated by congruent
// element pairs — a lattice of equal-pitch meshes repeats the same relative
// geometry thousands of times — and the flat kernel consumes a pair only
// through translation-invariant quantities: the horizontal offsets of the
// observation Gauss points from the source origin, the source direction and
// lengths, the absolute depths, and the per-layer image tables. Rounding the
// translation-dependent inputs to geomKeyBits (quantGeom) therefore gives
// every pair a canonical signature; pairMatrixFlatOn evaluated in quant mode
// is an exact function of that signature, so congruent pairs can share one
// elemental matrix regardless of which pair (or worker) computed it first.
// The H-matrix entry generator keys its cross-block cache on this signature;
// the dense assembly path never uses it.

// AppendPairGeomKey appends the canonical geometric signature of the ordered
// element pair (beta, alpha) to dst and reports whether the pair supports
// canonicalized evaluation. It returns ok = false — leaving dst's appended
// content unspecified — when the assembler does not run the flat kernel or
// the layer pair has no image expansion (the quadrature fallback path);
// callers must then evaluate through PairMatrix. Two pairs with equal
// signatures yield bitwise-identical PairMatrixQuant results.
func (a *Assembler) AppendPairGeomKey(beta, alpha int, dst []byte) ([]byte, bool) {
	if a.opt.Kernel != FlatKernel {
		return dst, false
	}
	p := a.Evaluator().plan(a.elemLayer[beta])
	pi := p.byElem[alpha]
	if pi < 0 {
		return dst, false
	}
	pe := &p.elems[pi]
	elA := &a.mesh.Elements[alpha]
	elB := &a.mesh.Elements[beta]
	lenB := elB.Seg.Length()

	// Outer-rule selection mirrors pairMatrixFlat exactly; the chosen rule is
	// the first discriminator of the signature.
	gpPos := a.gpPos[beta]
	rule := uint64(0)
	if beta == alpha ||
		elB.Seg.DistToSegment(elA.Seg) < 0.5*(lenB+elA.Seg.Length()) {
		gpPos = a.gpPosN[beta]
		rule = 1
	}

	dst = binary.LittleEndian.AppendUint64(dst, rule|
		uint64(a.elemLayer[alpha])<<1|uint64(a.elemLayer[beta])<<9|uint64(len(gpPos))<<17)
	// Image-table identity: an element's images are the shared ladder of
	// its (source layer, observation layer) pair applied to its source depth
	// and direction z, the layers being in the header word above.
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(elA.Seg.A.Z))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pe.tz))
	// Canonicalized source scalars, exactly as quant-mode evaluation uses
	// them; radius2 is an exact configuration constant.
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(quantGeom(pe.tx)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(quantGeom(pe.ty)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(quantGeom(pe.l)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(quantGeom(pe.invL)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pe.radius2))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(quantGeom(lenB)))
	// Per observation Gauss point: canonical horizontal offsets and the raw
	// depth (depth is translation-invariant and feeds the image ladder).
	for _, chi := range gpPos {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(quantGeom(chi.X-pe.ax)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(quantGeom(chi.Y-pe.ay)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(chi.Z))
	}
	return dst, true
}

// PairMatrixQuant computes the elemental matrix of the ordered pair
// (beta, alpha) on the canonicalized geometry: identical to PairMatrix up to
// the quantGeom rounding of the translation-dependent inputs (≲ 1e-9
// relative on the integrals), and an exact function of the pair's
// AppendPairGeomKey signature. Only valid for pairs whose key construction
// reported ok; cs must not be shared between concurrent workers.
func (a *Assembler) PairMatrixQuant(beta, alpha int, out []float64, cs *ColumnScratch) {
	for i := range out {
		out[i] = 0
	}
	a.pairMatrixFlatOn(beta, alpha, out, cs.s, true)
}
