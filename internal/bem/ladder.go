package bem

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"earthing/internal/soil"
)

// Ladder is the soil-dependent, mesh-independent state of the flat kernel:
// the flattened image ladder of one soil model and the registry of its
// far-field tables (farfield.go), keyed by (source layer, quantized source
// depth, observation layer, quantized observation depth). Every assembler
// owns a private one unless it is built with NewShared, which is how a
// design search (designopt) lets all its candidates share one: each then
// reads the tables and panels the others built.
//
// Sharing never changes a result: each assembler decides for itself which
// depths it registers and which classes and points pass the gate, and a
// table and each of its panels are pure functions of the ladder and their
// key. After construction only the registry's table creation (under mu) and
// the tables' atomic panel slots change, so a Ladder is safe for concurrent
// use by any number of assemblers.
type Ladder struct {
	canonical string // soil.Canonical of the model
	maxGroups int
	img       *imageLadder

	mu     sync.Mutex
	tables map[farKey]*farTable
	// builds counts panel builds, race losers included: the tests pin that
	// a sequence of assemblers on one ladder builds each panel once.
	builds atomic.Int64
}

// NewLadder flattens the image ladder of model under opt's series cap
// (MaxGroups) into a Ladder that assemblers of model may share (NewShared).
func NewLadder(model soil.Model, opt Options) *Ladder {
	opt = opt.withDefaults()
	return &Ladder{
		canonical: soil.Canonical(model),
		maxGroups: opt.MaxGroups,
		img:       newImageLadder(model, opt.MaxGroups),
		tables:    map[farKey]*farTable{},
	}
}

// fits reports whether an assembler of model under opt may share l: the
// models render the same soil.Canonical string, so their image expansions
// are bitwise equal, and opt caps the series where l does.
func (l *Ladder) fits(model soil.Model, opt Options) bool {
	return opt.withDefaults().MaxGroups == l.maxGroups && soil.Canonical(model) == l.canonical
}

// footprint returns the resident bytes of the ladder: its images and every
// table and panel built in its registry so far, by any assembler.
func (l *Ladder) footprint() int64 {
	n := l.img.footprint()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, t := range l.tables {
		n += farKeyBytes + t.footprint()
	}
	return n
}

// ladderImage is one image of a layer pair's series: the depth map
// z ↦ sign·z + off (sign = ±1) and the series weight. Because every image is
// affine in z only, it shares the (x, y) geometry of its source element, so
// the three scalars fully describe the image of any source segment.
type ladderImage struct {
	sign, off, w float64
}

// imageLadder holds the image expansion of every (src, obs) layer pair,
// flattened once per Ladder into one exact-size stream grouped by series
// index. It is the only retained copy of the image tables: the flat
// assembly kernel and the batched field evaluator both read it. A source
// element's transformed depths are derived on the fly (az = sign·A.Z + off,
// sz = sign·t.z); with sign = ±1 both products are exact, so no per-element
// copy is ever needed.
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
