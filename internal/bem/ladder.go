package bem

import (
	"cmp"
	"slices"

	"earthing/internal/geom"
	"earthing/internal/soil"
)

// ladderImage is one image of a layer pair's series: the depth map
// z ↦ sign·z + off (sign = ±1) and the series weight. Because every image is
// affine in z only, it shares the (x, y) geometry of its source element, so
// the three scalars fully describe the image of any source segment.
type ladderImage struct {
	sign, off, w float64
}

// applySegment maps a source segment to its image segment, with exactly the
// arithmetic of soil.Image.ApplySegment.
func (im ladderImage) applySegment(s geom.Segment) geom.Segment {
	return geom.Segment{
		A: geom.Vec3{X: s.A.X, Y: s.A.Y, Z: im.sign*s.A.Z + im.off},
		B: geom.Vec3{X: s.B.X, Y: s.B.Y, Z: im.sign*s.B.Z + im.off},
	}
}

// imageLadder holds the image expansion of every (src, obs) layer pair,
// flattened once per assembler into one exact-size stream grouped by series
// index. It is the only retained copy of the image tables: the reference and
// flat assembly kernels, the per-point Potential/GradPotential and the
// batched field evaluator all read it. A source element's transformed depths
// are derived on the fly (az = sign·A.Z + off, sz = sign·t.z); with sign = ±1
// both products are exact, so no per-element copy is ever needed.
type imageLadder struct {
	imgs []ladderImage
	// grpOff[g] is the first image of series group g; group g spans
	// imgs[grpOff[g]:grpOff[g+1]]. A trailing sentinel closes the last group.
	grpOff []int32
	// series[(src−1)·nl + obs−1] is the [lo, hi) group range of a layer pair,
	// or lo = −1 when the pair has no image expansion (quadrature fallback).
	series [][2]int32
	nl     int
	// mirror reports that every series group of every pair observed in
	// layer 1 is mirror-symmetric (see mirrorSymmetric): at the earth
	// surface z = 0 each image then has a bitwise-equal twin, so the field
	// evaluator keeps one image of each pair and doubles its weight.
	mirror bool
}

// newImageLadder flattens the image expansions (series groups 0..maxGroups)
// of every layer pair of model. Within a group, images keep the order
// ImageExpansion produced them in.
func newImageLadder(model soil.Model, maxGroups int) *imageLadder {
	nl := model.NumLayers()
	lad := &imageLadder{series: make([][2]int32, nl*nl), nl: nl}
	expansions := make([][]soil.Image, nl*nl)
	nImgs, nGroups := 0, 0
	for idx := range expansions {
		imgs, ok := model.ImageExpansion(idx/nl+1, idx%nl+1, maxGroups)
		if !ok {
			lad.series[idx] = [2]int32{-1, -1}
			continue
		}
		expansions[idx] = imgs
		nImgs += len(imgs)
		nGroups += numGroups(imgs)
	}

	lad.imgs = make([]ladderImage, nImgs)
	lad.grpOff = make([]int32, 0, nGroups+1)
	base := int32(0) // first image of the next group
	for idx, imgs := range expansions {
		if lad.series[idx][0] < 0 {
			continue
		}
		lo := int32(len(lad.grpOff))
		// Counting sort by group: per-group counts give the group offsets,
		// then each image lands at its group's next free slot.
		next := make([]int32, numGroups(imgs))
		for _, im := range imgs {
			next[im.Group]++
		}
		for g, n := range next {
			lad.grpOff = append(lad.grpOff, base)
			next[g] = base
			base += n
		}
		for _, im := range imgs {
			lad.imgs[next[im.Group]] = ladderImage{sign: im.Sign, off: im.Offset, w: im.Weight}
			next[im.Group]++
		}
		lad.series[idx] = [2]int32{lo, int32(len(lad.grpOff))}
	}
	lad.grpOff = append(lad.grpOff, base)
	lad.mirror = lad.mirrorSymmetric()
	return lad
}

// mirrorSymmetric reports whether, within every series group of every
// (src, obs = 1) pair, the images with sign = +1 map one to one onto the
// images with sign = −1 by (off, w) ↦ (−off, w). The air/earth reflection
// coefficient is +1 (eq. 3.2), so every image observed in layer 1 has such
// a mirror. At z = 0 the two terms are bitwise identical: the mirror's
// image depth −(sign·A.Z + off) is the exact negation of the original's, and
// the potential kernel sees only its square and sign·t.z·dz, both of which
// the double negation leaves unchanged (in the gradient, the pair's z terms
// cancel exactly).
func (l *imageLadder) mirrorSymmetric() bool {
	// Per group, the (off, w) keys of the sign = +1 images and the mirrored
	// keys of the sign = −1 images must be equal multisets: sort both and
	// compare. ±0 offsets compare equal, which is exact because adding
	// either zero to the depth product gives the same |dz|.
	var pos, neg [][2]float64
	byKey := func(a, b [2]float64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	}
	for src := 1; src <= l.nl; src++ {
		lo, hi, ok := l.pair(src, 1)
		if !ok {
			continue
		}
		for g := lo; g < hi; g++ {
			pos, neg = pos[:0], neg[:0]
			for _, im := range l.group(g) {
				if im.sign > 0 {
					pos = append(pos, [2]float64{im.off, im.w})
				} else {
					neg = append(neg, [2]float64{-im.off, im.w})
				}
			}
			if len(pos) != len(neg) {
				return false
			}
			slices.SortFunc(pos, byKey)
			slices.SortFunc(neg, byKey)
			for i := range pos {
				if byKey(pos[i], neg[i]) != 0 {
					return false
				}
			}
		}
	}
	return true
}

// numGroups returns the number of series groups an expansion spans.
func numGroups(imgs []soil.Image) int {
	n := 0
	for _, im := range imgs {
		n = max(n, im.Group+1)
	}
	return n
}

// pair returns the [lo, hi) series-group range of a (src, obs) layer pair and
// whether the pair has an image expansion.
func (l *imageLadder) pair(src, obs int) (lo, hi int32, ok bool) {
	r := l.series[(src-1)*l.nl+obs-1]
	return r[0], r[1], r[0] >= 0
}

// group returns the images of series group g.
func (l *imageLadder) group(g int32) []ladderImage {
	return l.imgs[l.grpOff[g]:l.grpOff[g+1]]
}

// footprint returns the resident bytes of the ladder (24 B per image, 4 B per
// group offset, 8 B per layer pair).
func (l *imageLadder) footprint() int64 {
	return int64(len(l.imgs))*24 + int64(len(l.grpOff))*4 + int64(len(l.series))*8
}
