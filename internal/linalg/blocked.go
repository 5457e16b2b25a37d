package linalg

import (
	"errors"
	"fmt"
	"math"

	"earthing/internal/faultinject"
	"earthing/internal/sched"
)

// Blocked packed Cholesky: a tiled right-looking factorization over
// cache-sized panels of the packed lower triangle: the one production
// factorization (the reference column sweep NewCholesky is its test oracle).
//
// The factorization proceeds panel by panel (BlockSize columns at a time):
//
//  1. panel factor — the nb×nb diagonal block is factored in place
//     (reference arithmetic restricted to the panel's columns);
//  2. triangular solve — every row below the panel solves its nb panel
//     entries against the factored diagonal block, one independent row at a
//     time (parallelized over row tiles via sched.ForTiles);
//  3. blocked SYRK — the trailing triangle is downdated by the panel's outer
//     product, again over independent row tiles.
//
// Every stage subtracts products term by term in ascending column order —
// exactly the operation sequence of the reference column sweep — so the
// float64 blocked factor, its Solve, Det and LogDet are bit-identical to
// NewCholesky's. What changes is the memory access pattern: all inner loops
// walk contiguous row segments of the packed triangle (no per-element index
// arithmetic), and the O(n³) trailing update touches each panel row while it
// is cache-hot instead of streaming the whole triangle once per column.
//
// Mixed precision (FactorOpts.Mixed) converts the panel to float32 for the
// trailing SYRK — the dominant O(n³) stage — halving its memory traffic.
// The panel factor, triangular solves and substitutions stay float64. The
// factor then carries O(1e-7) relative error, which Solve repairs by
// float64 iterative refinement on the residual (the handle retains the
// matrix for that); see Solve for the accuracy contract.

// ErrRefinementStalled is returned by Solve on a mixed-precision handle when
// iterative refinement cannot drive the residual below the float64
// backward-error floor: the system is too ill-conditioned for the float32
// factor to act as a contraction. Callers must re-factor in full precision
// (core.solveSystem does this automatically) — the error exists so mixed
// precision never degrades accuracy silently.
var ErrRefinementStalled = errors.New("linalg: mixed-precision refinement stalled")

// FactorOpts configures NewCholeskyBlocked.
type FactorOpts struct {
	// BlockSize is the panel width in columns (default 64). A panel row of
	// 64 float64 is one 512-byte streak — two cache lines under prefetch —
	// and the 64×64 diagonal block stays L1-resident.
	BlockSize int
	// Workers is the parallel width for the triangular-solve and SYRK
	// stages; ≤ 1 runs sequentially in the caller. The per-element
	// arithmetic is identical at any width, so results are bit-identical
	// across worker counts.
	Workers int
	// Mixed enables float32 trailing updates + float64 iterative refinement
	// in Solve. The handle retains a reference to the input matrix for the
	// refinement residuals; the caller must not mutate it while the handle
	// is in use. Results are within refinement tolerance of, but not
	// bit-identical to, the full-precision factor.
	Mixed bool
}

func (o FactorOpts) withDefaults() FactorOpts {
	if o.BlockSize <= 0 {
		o.BlockSize = 64
	}
	return o
}

// rowBase returns the packed offset of row i's first column.
func rowBase(i int) int { return i * (i + 1) / 2 }

// NewCholeskyBlocked factorizes the SPD matrix a with the tiled right-looking
// algorithm described in the package comment above. The input matrix is not
// modified. With opt.Mixed == false the returned factor (and everything
// derived from it: Solve, Det, LogDet) is bit-identical to NewCholesky's;
// with Mixed the handle additionally retains a for refinement in Solve.
func NewCholeskyBlocked(a *SymMatrix, opt FactorOpts) (*Cholesky, error) {
	opt = opt.withDefaults()
	n := a.n
	l := make([]float64, len(a.data))
	copy(l, a.data)
	c := &Cholesky{n: n, l: l, workers: opt.Workers}
	if opt.Mixed {
		c.refineA, c.refineNorm = a, a.NormInf()
	}

	nb := opt.BlockSize
	var f32 []float32 // mixed-precision panel mirror, reused across panels
	if opt.Mixed && n > nb {
		f32 = make([]float32, n*nb)
	}
	// Row-tile width for the parallel stages: big enough that a tile
	// amortizes its chunk claim, small enough that dynamic scheduling can
	// balance the triangular row costs.
	const rowTile = 16
	tileSched := sched.Schedule{Kind: sched.Dynamic, Chunk: 1}

	for p0 := 0; p0 < n; p0 += nb {
		p1 := p0 + nb
		if p1 > n {
			p1 = n
		}
		if faultinject.Active() {
			faultinject.Fire(faultinject.CholeskyPanel, p0/nb, l[rowBase(p0)+p0:rowBase(p0)+p0+1])
		}

		// Stage 1: factor the diagonal block in place (columns and rows
		// [p0, p1)). Prior panels already downdated it, so this is the
		// reference recurrence restricted to k ∈ [p0, j).
		for j := p0; j < p1; j++ {
			jb := rowBase(j)
			d := l[jb+j]
			rowJ := l[jb+p0 : jb+j]
			for _, v := range rowJ {
				d -= v * v
			}
			if d <= 0 || math.IsNaN(d) {
				return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, j, d)
			}
			dj := math.Sqrt(d)
			l[jb+j] = dj
			for i := j + 1; i < p1; i++ {
				ib := rowBase(i)
				s := l[ib+j]
				rowI := l[ib+p0 : ib+j]
				for k, v := range rowJ {
					s -= rowI[k] * v
				}
				l[ib+j] = s / dj
			}
		}
		if p1 == n {
			break
		}

		// Stage 2: triangular solve — row i ≥ p1 resolves its panel entries
		// L[i, p0:p1] against the factored diagonal block. Rows are
		// independent (row i reads only itself and the diagonal block), so
		// they distribute over tiles without synchronization.
		solveRow := func(i int) {
			ib := rowBase(i)
			for j := p0; j < p1; j++ {
				jb := rowBase(j)
				s := l[ib+j]
				rowI := l[ib+p0 : ib+j]
				rowJ := l[jb+p0 : jb+j]
				for k, v := range rowJ {
					s -= rowI[k] * v
				}
				l[ib+j] = s / l[jb+j]
			}
		}
		// Stage 3: blocked SYRK — downdate the trailing triangle row by row:
		// L[i, j] -= L[i, p0:p1]·L[j, p0:p1] for p1 ≤ j ≤ i, subtracting
		// term by term in ascending k so the op sequence matches the
		// reference sweep. All reads of rows < i are panel segments finalized
		// in stage 2; writes stay within row i, so row tiles are disjoint.
		width := p1 - p0
		syrkRow := func(i int) {
			ib := rowBase(i)
			panelI := l[ib+p0 : ib+p1]
			if f32 != nil {
				fi := f32[(i-p1)*width : (i-p1+1)*width]
				for j := p1; j <= i; j++ {
					fj := f32[(j-p1)*width : (j-p1+1)*width]
					var acc float32
					for k, v := range fj {
						acc += fi[k] * v
					}
					l[ib+j] -= float64(acc)
				}
				return
			}
			for j := p1; j <= i; j++ {
				jb := rowBase(j)
				panelJ := l[jb+p0 : jb+p1]
				s := l[ib+j]
				for k, v := range panelJ {
					s -= panelI[k] * v
				}
				l[ib+j] = s
			}
		}

		rows := n - p1
		if opt.Workers > 1 && rows >= 2*rowTile {
			sched.ForTiles(rows, rowTile, opt.Workers, tileSched, func(lo, hi int) {
				for r := lo; r < hi; r++ {
					solveRow(p1 + r)
				}
			})
			if f32 != nil {
				mirrorPanel(l, f32, p0, p1, n)
			}
			sched.ForTiles(rows, rowTile, opt.Workers, tileSched, func(lo, hi int) {
				for r := lo; r < hi; r++ {
					syrkRow(p1 + r)
				}
			})
		} else {
			for i := p1; i < n; i++ {
				solveRow(i)
			}
			if f32 != nil {
				mirrorPanel(l, f32, p0, p1, n)
			}
			for i := p1; i < n; i++ {
				syrkRow(i)
			}
		}
	}
	return c, nil
}

// mirrorPanel converts the finalized panel segments of rows [p1, n) to the
// float32 mirror used by the mixed-precision SYRK.
func mirrorPanel(l []float64, f32 []float32, p0, p1, n int) {
	width := p1 - p0
	for i := p1; i < n; i++ {
		ib := rowBase(i)
		row := l[ib+p0 : ib+p1]
		dst := f32[(i-p1)*width : (i-p1+1)*width]
		for k, v := range row {
			dst[k] = float32(v)
		}
	}
}
