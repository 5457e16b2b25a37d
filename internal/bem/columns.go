package bem

import (
	"context"

	"earthing/internal/faultinject"
	"earthing/internal/linalg"
)

// Column-level assembly API: the sweep engine interleaves the columns of
// many assemblers' element-pair triangles on one shared parallel loop, so
// matrix generation is exposed one column at a time through a PairStore.
// The pair classes, the per-class arithmetic and the sequential scatter
// order are exactly those of MatrixCtx's StoreThenAssemble path, which is
// what makes sweep-assembled systems bit-identical to MatrixCtx ones.

// ColumnScratch is the per-worker scratch of PairStore.ComputeColumn. A
// scratch must not be shared between concurrent workers; allocate one per
// worker with NewColumnScratch.
type ColumnScratch struct {
	s *pairScratch
}

// NewColumnScratch allocates the per-worker buffers for ComputeColumn.
func (a *Assembler) NewColumnScratch() *ColumnScratch {
	return &ColumnScratch{s: a.newScratch()}
}

// NumColumns returns the number of columns of the element-pair triangle
// (= the number of elements M); column β holds the pairs (β, α ≤ β).
func (a *Assembler) NumColumns() int { return len(a.mesh.Elements) }

// PairStore is the elemental-matrix store of one assembly: the pair → class
// table and one k×k slot per pair class. Every class is owned by one
// column, which computes it; distinct columns touch disjoint slots, so
// concurrent workers may fill different columns without synchronization.
type PairStore struct {
	a       *Assembler
	classes *pairClasses
	data    []float64
}

// NewPairStore classifies every element pair of the assembler, observing
// ctx once per column, and allocates the store.
func (a *Assembler) NewPairStore(ctx context.Context) (*PairStore, error) {
	cl, err := a.classify(ctx)
	if err != nil {
		return nil, err
	}
	return a.newPairStore(cl), nil
}

func (a *Assembler) newPairStore(cl *pairClasses) *PairStore {
	return &PairStore{a: a, classes: cl, data: make([]float64, len(cl.keys)*a.k*a.k)}
}

// class returns class c's slot.
func (ps *PairStore) class(c int) []float64 {
	kk := ps.a.k * ps.a.k
	return ps.data[c*kk : (c+1)*kk]
}

// ComputeColumn evaluates the classes column beta owns.
func (ps *PairStore) ComputeColumn(beta int, cs *ColumnScratch) {
	lo, hi := ps.classes.columnClasses(beta)
	for c := lo; c < hi; c++ {
		ps.a.evalClass(ps.classes, c, beta, ps.class(c), cs.s)
	}
	faultinject.Fire(faultinject.AssemblyColumn, beta, ps.ColumnRange(beta))
}

// ColumnRange returns the slots column beta writes — its classes' elemental
// matrices, possibly none. Exposed so batch engines can address one column's
// results (e.g. for fault-injection targeting) without knowing the layout.
func (ps *PairStore) ColumnRange(beta int) []float64 {
	lo, hi := ps.classes.columnClasses(beta)
	kk := ps.a.k * ps.a.k
	return ps.data[lo*kk : hi*kk]
}

// Assemble scatters a fully computed store into a fresh global matrix:
// every pair, in triangle order, receives its class matrix under its flip.
// The result is bit-identical to what MatrixCtx returns for the assembler.
func (ps *PairStore) Assemble() *linalg.SymMatrix {
	a := ps.a
	m := len(a.mesh.Elements)
	r := linalg.NewSymMatrix(a.mesh.NumDoF)
	var member [4]float64
	for beta := 0; beta < m; beta++ {
		row := beta * (beta + 1) / 2
		for alpha := 0; alpha <= beta; alpha++ {
			c := ps.classes.of[row+alpha]
			PairFlip(c&3).Apply(a.k, ps.class(int(c>>2)), member[:])
			a.assemblePair(r, beta, alpha, member[:])
		}
	}
	return r
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
