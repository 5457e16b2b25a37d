package hmatrix

import (
	"math/bits"

	"earthing/internal/bem"
	"earthing/internal/grid"
)

// Entry generation. ACA needs arbitrary rows and columns of the global
// Galerkin matrix without assembling it, so the generator reproduces the
// dense scatter (bem.Assembler's assemblePair) one global entry at a time.
//
// The dense path iterates the element-pair triangle (β, α ≤ β) and scatters
// each elemental matrix into the packed global triangle:
//
//   - self pair (β = α): local diagonal c[j·k+j] onto the global diagonal,
//     symmetrized off-diagonal ½(c[j·k+i]+c[i·k+j]) onto {DoF_j, DoF_i};
//   - β ≠ α: c[j·k+i] onto the unordered global pair {dβ_j, dα_i}, doubled
//     when dβ_j = dα_i (the mirrored ordered pair lands on the same packed
//     diagonal entry).
//
// Inverting the scatter: the global entry A(p, q) is the sum over all
// (element, local-index) incidences (e₁, j) of p and (e₂, i) of q. For
// e₁ = e₂ that is the self-pair rule above; for e₁ ≠ e₂ it is the ordered
// elemental entry with the higher-indexed element first. For p = q and
// e₁ ≠ e₂ the incidence product enumerates both (e₁, e₂) and (e₂, e₁),
// which supplies the dense path's factor-2 diagonal doubling without a
// special case.

// elemRef is one (element, local DoF index) incidence of a degree of
// freedom.
type elemRef struct {
	elem int
	loc  int
}

// adjacency builds the DoF → incidences table of a mesh.
func adjacency(m *grid.Mesh) [][]elemRef {
	adj := make([][]elemRef, m.NumDoF)
	k := m.DoFCount()
	for e := range m.Elements {
		for j := 0; j < k; j++ {
			d := m.Elements[e].DoF[j]
			adj[d] = append(adj[d], elemRef{elem: e, loc: j})
		}
	}
	return adj
}

// filler generates global matrix entries for one worker. It owns a
// per-worker assembly scratch and a cache of elemental pair matrices: within
// one block the same element pair backs up to k² global entries, and ACA
// revisits rows and columns of the same index sets, so the cache turns most
// entry evaluations into table lookups. Reset per block bounds its memory by
// the block's element footprint. A filler must not be shared between
// concurrent workers.
//
// Behind the per-block cache sits the pair-class cache, keyed on
// bem.PairClass signatures and persistent across blocks: grounding lattices
// repeat the same relative pair geometry thousands of times, and the class
// matrix (bem.ClassMatrix) is an exact function of the signature — the same
// evaluation dense assembly uses — so reuse is bitwise deterministic no
// matter which block, worker or schedule first computed a class.
type filler struct {
	asm *bem.Assembler
	adj [][]elemRef
	k   int

	cs    *bem.ColumnScratch
	cache pairIndex // ordered pair → its matrix's index in slab
	slab  []float64 // cached k×k elemental matrices, back to back

	classes   bem.ClassIndex // class signature → class c, at classSlab[c·k²:]
	classSlab []float64
	key       bem.PairKey
	class     []float64 // k×k class matrix of an uncached class
}

// classCacheCap bounds the class cache entries per worker (~2M signatures;
// a few hundred MB worst case). Past the cap, lookups continue but new
// classes are evaluated without being retained.
const classCacheCap = 1 << 21

func newFiller(asm *bem.Assembler, adj [][]elemRef, k int, cs *bem.ColumnScratch) *filler {
	return &filler{
		asm:   asm,
		adj:   adj,
		k:     k,
		cs:    cs,
		class: make([]float64, k*k),
	}
}

// resetCache drops the per-block pair matrices (called between blocks). The
// class cache persists: its values are pure functions of their keys.
func (f *filler) resetCache() {
	f.cache.reset()
	f.slab = f.slab[:0]
}

// pair returns the elemental matrix of the ordered pair (β = max(e1,e2),
// α = min(e1,e2)), computing and caching it on first use.
func (f *filler) pair(e1, e2 int) []float64 {
	beta, alpha := e1, e2
	if beta < alpha {
		beta, alpha = alpha, beta
	}
	key := uint64(beta)<<32 | uint64(alpha)
	kk := f.k * f.k
	if i, ok := f.cache.find(key); ok {
		return f.slab[int(i)*kk : int(i+1)*kk]
	}
	off := len(f.slab)
	f.slab = append(f.slab, make([]float64, kk)...)
	out := f.slab[off : off+kk]
	f.fillPair(beta, alpha, out)
	f.cache.insert(key, int32(off/kk))
	return out
}

// pairIndex is the filler's per-block pair cache index: open addressing
// (linear probing, multiplicative hash) from an ordered element pair
// β<<32 | α to its matrix's index in the slab. A slot is live only when
// it carries the current generation, so reset empties the index in O(1)
// and one table, grown to the largest block's footprint, serves every
// block of a worker. The zero value is an empty index.
type pairIndex struct {
	slots []pairSlot // a power of two
	shift uint       // 64 − log2(len(slots))
	gen   uint32     // the live generation (≥ 1 once slots exist)
	n     int        // live slots
}

type pairSlot struct {
	key uint64
	gen uint32
	idx int32
}

// pairIndexMin is the initial slot count of a pairIndex.
const pairIndexMin = 1024

func (x *pairIndex) home(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> x.shift
}

// find returns the slab index of key and whether it is cached.
func (x *pairIndex) find(key uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			return 0, false
		}
		if s.key == key {
			return s.idx, true
		}
	}
}

// insert caches key (absent) at slab index idx, growing the table past
// half full.
func (x *pairIndex) insert(key uint64, idx int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	x.put(key, idx)
	x.n++
}

func (x *pairIndex) put(key uint64, idx int32) {
	mask := uint64(len(x.slots) - 1)
	i := x.home(key)
	for x.slots[i].gen == x.gen {
		i = (i + 1) & mask
	}
	x.slots[i] = pairSlot{key: key, gen: x.gen, idx: idx}
}

// grow doubles the table (or allocates the first one) and re-inserts the
// live slots under a fresh generation.
func (x *pairIndex) grow() {
	old, gen := x.slots, x.gen
	n := 2 * len(old)
	if n == 0 {
		n = pairIndexMin
	}
	x.slots = make([]pairSlot, n)
	x.shift = uint(65 - bits.Len(uint(n)))
	x.gen = 1
	for _, s := range old {
		if s.gen == gen {
			x.put(s.key, s.idx)
		}
	}
}

// reset empties the index by advancing the generation; on the rare
// wrap-around it clears the slots, so no stale stamp can match.
func (x *pairIndex) reset() {
	x.n = 0
	if x.gen++; x.gen == 0 {
		clear(x.slots)
		x.gen = 1
	}
}

// fillPair computes the elemental matrix of (beta, alpha) into out: its
// class matrix under its flip, through the class cache, or the pair's own
// evaluation when it has no class.
func (f *filler) fillPair(beta, alpha int, out []float64) {
	flip, ok := f.asm.PairClass(beta, alpha, &f.key)
	if !ok {
		f.asm.PairMatrix(beta, alpha, out, f.cs)
		return
	}
	kk := f.k * f.k
	class := f.class
	if f.classes.Len() < classCacheCap {
		c, added := f.classes.Intern(&f.key)
		if added {
			f.asm.ClassMatrix(&f.key, class, f.cs)
			f.classSlab = append(f.classSlab, class...)
		}
		class = f.classSlab[int(c)*kk : int(c+1)*kk]
	} else if c, hit := f.classes.Find(&f.key); hit {
		class = f.classSlab[int(c)*kk : int(c+1)*kk]
	} else {
		f.asm.ClassMatrix(&f.key, class, f.cs)
	}
	flip.Apply(f.k, class, out)
}

// entry returns the global matrix entry A(p, q) for original DoF indices
// p and q, matching the dense assembly up to floating-point association.
func (f *filler) entry(p, q int) float64 {
	k := f.k
	var sum float64
	for _, rp := range f.adj[p] {
		for _, rq := range f.adj[q] {
			c := f.pair(rp.elem, rq.elem)
			switch {
			case rp.elem == rq.elem:
				if p == q {
					sum += c[rp.loc*k+rp.loc]
				} else {
					sum += 0.5 * (c[rp.loc*k+rq.loc] + c[rq.loc*k+rp.loc])
				}
			case rp.elem > rq.elem:
				// p lives in the higher-indexed element β: test index first.
				sum += c[rp.loc*k+rq.loc]
			default:
				sum += c[rq.loc*k+rp.loc]
			}
		}
	}
	return sum
}

// row fills out[jj] = A(perm[rowIdx], perm[colLo+jj]) for jj < len(out):
// one row of a block in permuted coordinates.
func (f *filler) row(perm []int, rowIdx, colLo int, out []float64) {
	p := perm[rowIdx]
	for jj := range out {
		out[jj] = f.entry(p, perm[colLo+jj])
	}
}

// col fills out[ii] = A(perm[rowLo+ii], perm[colIdx]): one column of a block
// in permuted coordinates.
func (f *filler) col(perm []int, rowLo, colIdx int, out []float64) {
	q := perm[colIdx]
	for ii := range out {
		out[ii] = f.entry(perm[rowLo+ii], q)
	}
}

// dense fills an m×n block row-major: out[ii*n+jj] = A(perm[rowLo+ii],
// perm[colLo+jj]).
func (f *filler) dense(perm []int, rowLo, m, colLo, n int, out []float64) {
	for ii := 0; ii < m; ii++ {
		f.row(perm, rowLo+ii, colLo, out[ii*n:(ii+1)*n])
	}
}
