package bem

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"earthing/internal/faultinject"
	"earthing/internal/geom"
)

// Search-scoped memos. The candidates of a design search share one Ladder
// (NewShared), and candidates repeat much of each other's work: many of a
// candidate's pair classes and surface-potential columns were already
// evaluated for an earlier one. A ladder built by NewLadder
// therefore memoizes two kinds of result, each an exact function of its
// key, so a served value is bitwise the value the assembler would compute:
//
//   - Class matrices, keyed by PairKey. MatrixCtx copies every class of
//     its classification the memo holds into its pair store before the pair
//     loop, evaluates only the misses and publishes them from the store
//     after the loop succeeded.
//   - Surface-potential columns: the column (c0, c1) of one plan element at
//     every point of a batch (FieldEvaluator.column), keyed by the
//     element's header and the batch's point set, which is matched exactly,
//     coordinate bits and order. PotentialBatchCtx resolves each element's
//     column, computes the missing ones in its parallel pass over the
//     points and publishes them after it. It keeps a computed column only
//     when the memo has room for it; the others it computes per point and
//     drops, as PotentialAt does.
//
// A value also depends on the assembler options its arithmetic reads
// (memoVariant), so each variant has its own entries. A class matrix
// further depends on which far tables the assembler reaches: an assembler
// that registered only farMaxDepths of its horizontal depths (initFar)
// reads and writes no class memo.
//
// Private ladders (New) carry no memo. Each memo stops
// growing at a constant byte cap, and both are counted in Ladder.footprint.
// Nothing is published from a failed or cancelled loop, or while a fault
// hook is installed (faultinject.Active), so a poisoned value can never be
// served to a later candidate.
const (
	classMemoCap  = 1 << 20
	columnMemoCap = 3 << 20
)

// Resident-size estimates of the memo entries: a class holds its key, two
// index slots and its k×k matrix; a column its key, a map entry and two
// floats per point; a point set its points.
const (
	classMemoEntryBytes  = pairKeyWords*8 + 16
	columnMemoEntryBytes = colKeyBytes + 48
	pointSetBytes        = 64
)

// memoVariant is what a memoized value depends on beyond its key: the
// element kind, the outer Gauss rules and the series tolerance.
type memoVariant struct {
	linear           bool
	gauss, nearGauss int
	seriesTol        float64
}

// ladderMemo holds the memos of a shared Ladder.
type ladderMemo struct {
	mu   sync.Mutex
	sets map[memoVariant]*memoSet
	// classBytes and colBytes are the bytes each memo holds, against
	// classCap and colCap (classMemoCap and columnMemoCap).
	classBytes, colBytes int64
	classCap, colCap     int64

	// Served and computed classes and columns, for the tests and the
	// hit rates of the design loop.
	classHits, classMisses atomic.Int64
	colHits, colMisses     atomic.Int64
}

func newLadderMemo() *ladderMemo {
	return &ladderMemo{sets: map[memoVariant]*memoSet{}, classCap: classMemoCap, colCap: columnMemoCap}
}

// memoSet is one variant's memoized values.
type memoSet struct {
	classes ClassIndex
	// vals holds k·k values per class of classes, in class order.
	vals   []float64
	points []*pointSet
}

// pointSet is one batch point set and the element columns memoized on it.
type pointSet struct {
	hash uint64
	pts  []geom.Vec3
	// cols maps an element's key to its column, c0 and c1 interleaved per
	// point.
	cols map[colKey][]float64
}

// colKey names a plan element's column: every header field the column
// reads, by bits (planElem minus its DoF indices), and its surface table.
type colKey struct {
	f            [10]uint64
	grpLo, grpHi int32
	surf         *farTable
}

// colKeyBytes is the size of a colKey.
const colKeyBytes = 10*8 + 2*4 + 8

func (pe *planElem) colKey() colKey {
	b := math.Float64bits
	return colKey{
		f:     [10]uint64{b(pe.pref), b(pe.radius2), b(pe.l), b(pe.invL), b(pe.ax), b(pe.ay), b(pe.tx), b(pe.ty), b(pe.tz), b(pe.az0)},
		grpLo: pe.grpLo,
		grpHi: pe.grpHi,
		surf:  pe.surf,
	}
}

// memoVariant returns the variant of a's memoized values.
func (a *Assembler) memoVariant() memoVariant {
	return memoVariant{linear: a.linear, gauss: a.opt.GaussOrder, nearGauss: a.opt.NearGaussOrder, seriesTol: a.opt.SeriesTol}
}

// classMemo returns a's class memo, or nil when its ladder has none or a
// registered only some of its horizontal depths.
func (a *Assembler) classMemo() *ladderMemo {
	if m := a.lad.memo; m != nil && a.far.complete {
		return m
	}
	return nil
}

// set returns variant v's set, creating it when create is set. m.mu must
// be held.
func (m *ladderMemo) set(v memoVariant, create bool) *memoSet {
	s := m.sets[v]
	if s == nil && create {
		s = &memoSet{}
		m.sets[v] = s
	}
	return s
}

// resolveClasses copies the memoized matrix of every class of ps it holds
// into the class's slot and returns which classes it served.
func (m *ladderMemo) resolveClasses(v memoVariant, ps *pairStore) []bool {
	keys := ps.classes.keys
	served := make([]bool, len(keys))
	kk := ps.a.k * ps.a.k
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.set(v, false)
	n := 0
	for c := range keys {
		if s == nil || keys[c][kwHeader] == exactClass {
			continue
		}
		if i, ok := s.classes.Find(&keys[c]); ok {
			copy(ps.class(c), s.vals[int(i)*kk:])
			served[c] = true
			n++
		}
	}
	m.classHits.Add(int64(n))
	m.classMisses.Add(int64(len(keys) - n))
	return served
}

// publishClasses adds the slot of every class of ps that served does not
// mark, until the cap.
func (m *ladderMemo) publishClasses(v memoVariant, ps *pairStore, served []bool) {
	if faultinject.Active() {
		return
	}
	keys := ps.classes.keys
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.set(v, true)
	entry := int64(classMemoEntryBytes + 8*ps.a.k*ps.a.k)
	for c := range keys {
		if served[c] || keys[c][kwHeader] == exactClass {
			continue
		}
		if m.classBytes+entry > m.classCap {
			return
		}
		if _, added := s.classes.Intern(&keys[c]); added {
			s.vals = append(s.vals, ps.class(c)...)
			m.classBytes += entry
		}
	}
}

// resolveColumns returns, per element key, its memoized column on pts, or
// a fresh buffer, which fresh marks, for a missing column the memo still
// has room for; every other column is nil, to be computed and dropped.
// The room is the cap's as resolveColumns sees it, so a batch allocates
// buffers for no more columns than the memo can keep. ok is false when the
// memo serves no column and has room for none.
func (m *ladderMemo) resolveColumns(v memoVariant, pts []geom.Vec3, keys []colKey) (cols [][]float64, fresh []bool, ok bool) {
	cols = make([][]float64, len(keys))
	entry := int64(columnMemoEntryBytes + 16*len(pts))
	m.mu.Lock()
	room := m.colCap - m.colBytes
	n := 0
	if ps := m.pointSet(v, pts, pointsHash(pts)); ps != nil {
		for i, k := range keys {
			if cols[i] = ps.cols[k]; cols[i] != nil {
				n++
			}
		}
	} else {
		room -= pointSetBytes + 24*int64(len(pts))
	}
	m.mu.Unlock()
	m.colHits.Add(int64(n))
	m.colMisses.Add(int64(len(keys) - n))

	free := int64(0)
	if room > 0 {
		free = room / entry
	}
	if n == 0 && free == 0 {
		return nil, nil, false
	}
	fresh = make([]bool, len(keys))
	for i := range cols {
		if cols[i] == nil && free > 0 {
			cols[i], fresh[i] = make([]float64, 2*len(pts)), true
			free--
		}
	}
	return cols, fresh, true
}

// publishColumns adds the columns cols[i] of keys[i] on pts for every i
// fresh marks, until the cap.
func (m *ladderMemo) publishColumns(v memoVariant, pts []geom.Vec3, keys []colKey, cols [][]float64, fresh []bool) {
	if faultinject.Active() {
		return
	}
	entry := int64(columnMemoEntryBytes + 16*len(pts))
	m.mu.Lock()
	defer m.mu.Unlock()
	h := pointsHash(pts)
	ps := m.pointSet(v, pts, h)
	if ps == nil {
		size := int64(pointSetBytes + 24*len(pts))
		if m.colBytes+size+entry > m.colCap {
			return
		}
		s := m.set(v, true)
		ps = &pointSet{hash: h, pts: slices.Clone(pts), cols: map[colKey][]float64{}}
		s.points = append(s.points, ps)
		m.colBytes += size
	}
	for i, k := range keys {
		if !fresh[i] || ps.cols[k] != nil {
			continue
		}
		if m.colBytes+entry > m.colCap {
			return
		}
		ps.cols[k] = cols[i]
		m.colBytes += entry
	}
}

// pointSet returns variant v's point set equal to pts, coordinate bits and
// order, or nil. m.mu must be held.
func (m *ladderMemo) pointSet(v memoVariant, pts []geom.Vec3, h uint64) *pointSet {
	s := m.set(v, false)
	if s == nil {
		return nil
	}
	for _, ps := range s.points {
		if ps.hash == h && samePoints(ps.pts, pts) {
			return ps
		}
	}
	return nil
}

// samePoints reports whether a and b hold the same points, bit for bit.
func samePoints(a, b []geom.Vec3) bool {
	if len(a) != len(b) {
		return false
	}
	b64 := math.Float64bits
	for i := range a {
		if b64(a[i].X) != b64(b[i].X) || b64(a[i].Y) != b64(b[i].Y) || b64(a[i].Z) != b64(b[i].Z) {
			return false
		}
	}
	return true
}

// pointsHash mixes the coordinate bits of pts, a multiply-rotate per word
// as in PairKey.hash.
func pointsHash(pts []geom.Vec3) uint64 {
	h := uint64(len(pts))
	for _, p := range pts {
		for _, w := range [3]float64{p.X, p.Y, p.Z} {
			h = bits.RotateLeft64((h^math.Float64bits(w))*0xbf58476d1ce4e5b9, 31)
		}
	}
	return h
}

// MemoBytes returns the bytes the ladder's memos hold: 0 for a private
// ladder, and for a shared one on which no loop has published.
func (l *Ladder) MemoBytes() int64 {
	if l.memo == nil {
		return 0
	}
	return l.memo.footprint()
}

// footprint returns the bytes the memos hold.
func (m *ladderMemo) footprint() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.classBytes + m.colBytes
}
