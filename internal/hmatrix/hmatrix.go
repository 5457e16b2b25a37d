package hmatrix

import (
	"context"
	"runtime"
	"sync/atomic"

	"earthing/internal/bem"
	"earthing/internal/faultinject"
	"earthing/internal/sched"
)

// Params configures the H-matrix construction. The zero value selects the
// defaults tuned for the grounding kernels (see DESIGN.md §14).
type Params struct {
	// Eps is the relative Frobenius tolerance of every compressed block
	// (default 1e-6). The global matvec error tracks it within a small
	// partition-dependent constant, which the differential suite pins.
	Eps float64
	// Eta is the admissibility parameter: a block is compressed when
	// min(diam) ≤ η·dist (default 2; larger η compresses more aggressively).
	Eta float64
	// LeafSize is the cluster-tree leaf capacity (default 64).
	LeafSize int
	// MaxRank caps the ACA rank per block (default 96). Hitting the cap
	// without meeting Eps fails the build with ErrACAStalled.
	MaxRank int
	// Workers is the parallel width of the block fill and the matvec
	// (≤ 0 selects GOMAXPROCS).
	Workers int
	// Schedule distributes blocks over workers (zero value: dynamic,1 — the
	// block costs are as irregular as the element-pair columns).
	Schedule sched.Schedule
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 1e-6
	}
	if p.Eta <= 0 {
		p.Eta = 2
	}
	if p.LeafSize <= 0 {
		p.LeafSize = 64
	}
	if p.MaxRank <= 0 {
		p.MaxRank = 96
	}
	if p.MaxRank > maxRankScratch {
		p.MaxRank = maxRankScratch
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Schedule.IsZero() {
		p.Schedule = sched.Schedule{Kind: sched.Dynamic, Chunk: 1}
	}
	return p
}

// blockKind discriminates the stored block variants.
type blockKind uint8

const (
	denseDiag blockKind = iota // symmetric leaf block on the diagonal
	denseOff                   // inadmissible off-diagonal leaf block
	lowRankB                   // ACA-compressed admissible block
)

// block is one stored node of the partition. Off-diagonal blocks are
// applied twice per matvec (direct and transposed) to account for the
// symmetric upper triangle that is not stored.
type block struct {
	kind         blockKind
	rowLo, rowHi int // permuted row range
	colLo, colHi int // permuted column range

	d    []float64 // dense m×n row-major (denseDiag: m == n)
	lr   *lowRank
	rOff int // offset of the row-range contribution in the matvec staging slab
	cOff int // offset of the col-range contribution (off-diagonal kinds only)
}

// BuildStats describes the compressed representation.
type BuildStats struct {
	N           int     // matrix order
	DenseBlocks int     // near-field blocks stored dense
	LowRank     int     // admissible blocks stored as UVᵀ
	MaxRank     int     // largest stored rank after recompression
	AvgRank     float64 // mean stored rank over low-rank blocks
	Bytes       int64   // compressed storage (block payloads)
	DenseBytes  int64   // packed dense equivalent n(n+1)/2 × 8
}

// CompressionRatio returns compressed bytes over packed dense bytes.
func (s BuildStats) CompressionRatio() float64 {
	if s.DenseBytes == 0 {
		return 1
	}
	return float64(s.Bytes) / float64(s.DenseBytes)
}

// HMatrix is the hierarchical representation of one Galerkin system matrix.
// It implements linalg.Operator over the original DoF ordering (the
// permutation is internal). Apply is safe to call repeatedly but not
// concurrently: the staging buffers are owned by the handle.
type HMatrix struct {
	n      int
	perm   []int // permuted position → original DoF
	blocks []block
	diag   []float64 // matrix diagonal in original DoF order
	stats  BuildStats

	workers  int
	schedule sched.Schedule

	// Matvec state: permuted input/output and the per-block staging slab
	// (each block writes only its own staging ranges inside the parallel
	// phase; a sequential scatter in fixed block order then accumulates, so
	// the product is bit-identical at every worker count).
	xp, yp  []float64
	staging []float64

	applies atomic.Int64 // operator applications, reported to fault injection
}

// Build constructs the H-matrix of the assembler's Galerkin system: cluster
// tree over the DoF node positions, η-admissible partition, ACA on the far
// field and dense near-field leaves through the assembler's pair kernels.
// Blocks are filled in parallel; each block is deterministic on its own, so
// the representation does not depend on the schedule. ctx cancels between
// blocks.
func Build(ctx context.Context, asm *bem.Assembler, p Params) (*HMatrix, error) {
	p = p.withDefaults()
	mesh := asm.Mesh()
	tree, err := NewClusterTree(mesh.NodePos, p.LeafSize)
	if err != nil {
		return nil, err
	}
	pairs := partition(tree.Root, p.Eta)

	h := &HMatrix{
		n:        mesh.NumDoF,
		perm:     tree.Perm,
		blocks:   make([]block, len(pairs)),
		workers:  p.Workers,
		schedule: p.Schedule,
	}

	// Per-worker fillers are created lazily inside the loop body; sched may
	// deliver a worker index one past the requested width (the coordinator
	// slot), hence the +1.
	adj := adjacency(mesh)
	k := mesh.DoFCount()
	fillers := make([]*filler, p.Workers+1)
	arenas := make([]bem.Arena, p.Workers+1)
	errs := make([]error, len(pairs))

	_, err = sched.ForStatsCtx(ctx, len(pairs), p.Workers, p.Schedule, func(i, w int) {
		if w >= len(fillers) {
			w = len(fillers) - 1
		}
		f := fillers[w]
		if f == nil {
			f = newFiller(asm, adj, k, asm.ColumnScratchFromArena(&arenas[w]))
			fillers[w] = f
		}
		f.resetCache()
		errs[i] = h.fillBlock(f, pairs[i], i, p.Eps, p.MaxRank)
	})
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			b := pairs[i]
			return nil, &BuildError{
				Block: BlockID{RowLo: b.row.Lo, RowHi: b.row.Hi, ColLo: b.col.Lo, ColHi: b.col.Hi},
				Err:   e,
			}
		}
	}

	h.finalize()
	return h, nil
}

// fillBlock computes the stored form of partition node i.
func (h *HMatrix) fillBlock(f *filler, bp blockPair, i int, eps float64, maxRank int) error {
	b := &h.blocks[i]
	b.rowLo, b.rowHi = bp.row.Lo, bp.row.Hi
	b.colLo, b.colHi = bp.col.Lo, bp.col.Hi
	m := bp.row.Size()
	n := bp.col.Size()
	switch {
	case bp.admissible:
		lr, err := acaBlock(f, h.perm, b.rowLo, m, b.colLo, n, eps, maxRank, i)
		if err != nil {
			return err
		}
		b.kind = lowRankB
		b.lr = lr
	case b.rowLo == b.colLo:
		b.kind = denseDiag
		b.d = make([]float64, m*n)
		f.dense(h.perm, b.rowLo, m, b.colLo, n, b.d)
	default:
		b.kind = denseOff
		b.d = make([]float64, m*n)
		f.dense(h.perm, b.rowLo, m, b.colLo, n, b.d)
	}
	return nil
}

// finalize lays out the matvec staging slab, extracts the diagonal and
// computes the storage statistics.
func (h *HMatrix) finalize() {
	h.stats = BuildStats{N: h.n, DenseBytes: int64(h.n) * int64(h.n+1) / 2 * 8}
	var rankSum int
	off := 0
	for i := range h.blocks {
		b := &h.blocks[i]
		m := b.rowHi - b.rowLo
		n := b.colHi - b.colLo
		b.rOff = off
		off += m
		if b.kind != denseDiag {
			b.cOff = off
			off += n
		}
		switch b.kind {
		case lowRankB:
			h.stats.LowRank++
			rankSum += b.lr.rank
			if b.lr.rank > h.stats.MaxRank {
				h.stats.MaxRank = b.lr.rank
			}
			h.stats.Bytes += int64(len(b.lr.u)+len(b.lr.v)) * 8
		default:
			h.stats.DenseBlocks++
			h.stats.Bytes += int64(len(b.d)) * 8
		}
	}
	if h.stats.LowRank > 0 {
		h.stats.AvgRank = float64(rankSum) / float64(h.stats.LowRank)
	}
	h.staging = make([]float64, off)
	h.xp = make([]float64, h.n)
	h.yp = make([]float64, h.n)

	// Diagonal: every diagonal DoF lives in exactly one denseDiag leaf.
	h.diag = make([]float64, h.n)
	for i := range h.blocks {
		b := &h.blocks[i]
		if b.kind != denseDiag {
			continue
		}
		m := b.rowHi - b.rowLo
		for ii := 0; ii < m; ii++ {
			h.diag[h.perm[b.rowLo+ii]] = b.d[ii*m+ii]
		}
	}
}

// Stats returns the compression statistics.
func (h *HMatrix) Stats() BuildStats { return h.stats }

// Order implements linalg.Operator.
func (h *HMatrix) Order() int { return h.n }

// Diag returns a copy of the matrix diagonal in original DoF order.
func (h *HMatrix) Diag() []float64 {
	d := make([]float64, h.n)
	copy(d, h.diag)
	return d
}

// Apply implements linalg.Operator: y = H·x in the original DoF ordering.
// Block products run in parallel over sched.ForTiles into disjoint staging
// ranges; the scatter into y is sequential in fixed block order, so the
// result is bit-identical for every worker count and schedule.
func (h *HMatrix) Apply(x, y []float64) {
	if len(x) != h.n || len(y) != h.n {
		panic("hmatrix: Apply dimension mismatch")
	}
	for p, d := range h.perm {
		h.xp[p] = x[d]
	}
	sched.ForTiles(len(h.blocks), 1, h.workers, h.schedule, func(lo, hi int) {
		var w [maxRankScratch]float64
		for i := lo; i < hi; i++ {
			h.blocks[i].compute(h.xp, h.staging, w[:])
		}
	})
	for i := range h.yp {
		h.yp[i] = 0
	}
	for i := range h.blocks {
		b := &h.blocks[i]
		for ii, v := range h.staging[b.rOff : b.rOff+b.rowHi-b.rowLo] {
			h.yp[b.rowLo+ii] += v
		}
		if b.kind != denseDiag {
			for jj, v := range h.staging[b.cOff : b.cOff+b.colHi-b.colLo] {
				h.yp[b.colLo+jj] += v
			}
		}
	}
	for p, d := range h.perm {
		y[d] = h.yp[p]
	}
	faultinject.Fire(faultinject.HMatrixCGIter, int(h.applies.Add(1)), y)
}

// maxRankScratch bounds the per-tile low-rank product scratch; Params
// validation keeps MaxRank within it.
const maxRankScratch = 256

// compute writes the block's matvec contributions into its staging ranges:
// the row-range product, and for off-diagonal blocks also the transposed
// col-range product. w is rank-sized scratch.
func (b *block) compute(xp, staging, w []float64) {
	m := b.rowHi - b.rowLo
	n := b.colHi - b.colLo
	xr := xp[b.rowLo : b.rowLo+m]
	xc := xp[b.colLo : b.colLo+n]
	out := staging[b.rOff : b.rOff+m]
	switch b.kind {
	case denseDiag:
		for ii := 0; ii < m; ii++ {
			row := b.d[ii*n : ii*n+n]
			var s float64
			for jj, a := range row {
				s += a * xc[jj]
			}
			out[ii] = s
		}
	case denseOff:
		outT := staging[b.cOff : b.cOff+n]
		for jj := range outT {
			outT[jj] = 0
		}
		for ii := 0; ii < m; ii++ {
			row := b.d[ii*n : ii*n+n]
			xi := xr[ii]
			var s float64
			for jj, a := range row {
				s += a * xc[jj]
				outT[jj] += a * xi
			}
			out[ii] = s
		}
	case lowRankB:
		r := b.lr.rank
		outT := staging[b.cOff : b.cOff+n]
		if r == 0 {
			for ii := range out {
				out[ii] = 0
			}
			for jj := range outT {
				outT[jj] = 0
			}
			return
		}
		w = w[:r]
		// w = Vᵀ·x_cols, then out = U·w.
		for l := range w {
			w[l] = 0
		}
		for jj := 0; jj < n; jj++ {
			if xj := xc[jj]; xj != 0 {
				row := b.lr.v[jj*r : jj*r+r]
				for l, a := range row {
					w[l] += a * xj
				}
			}
		}
		for ii := 0; ii < m; ii++ {
			row := b.lr.u[ii*r : ii*r+r]
			var s float64
			for l, a := range row {
				s += a * w[l]
			}
			out[ii] = s
		}
		// w = Uᵀ·x_rows, then outT = V·w.
		for l := range w {
			w[l] = 0
		}
		for ii := 0; ii < m; ii++ {
			if xi := xr[ii]; xi != 0 {
				row := b.lr.u[ii*r : ii*r+r]
				for l, a := range row {
					w[l] += a * xi
				}
			}
		}
		for jj := 0; jj < n; jj++ {
			row := b.lr.v[jj*r : jj*r+r]
			var s float64
			for l, a := range row {
				s += a * w[l]
			}
			outT[jj] = s
		}
	}
}
