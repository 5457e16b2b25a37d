package linalg

import "earthing/internal/sched"

// MulVecParallel computes y = A·x with rows distributed over workers.
// Unlike MulVec's single sweep of the packed triangle (which scatters into
// y and cannot run concurrently), each row is computed independently:
// y_i = Σ_{j≤i} L[i,j]·x_j + Σ_{j>i} L[j,i]·x_j. That doubles the memory
// traffic but removes all write sharing, so it scales with cores for the
// large dense systems where the CG solve starts to matter.
//
// workers ≤ 1 falls back to the sequential MulVec.
func (m *SymMatrix) MulVecParallel(x, y []float64, workers int) {
	if len(x) != m.n || len(y) != m.n {
		panic("linalg: MulVecParallel dimension mismatch")
	}
	if workers <= 1 || m.n < 64 {
		m.MulVec(x, y)
		return
	}
	// Dynamic chunks balance the triangular row costs.
	s := sched.Schedule{Kind: sched.Dynamic, Chunk: 8}
	sched.For(m.n, workers, s, func(i int) {
		base := i * (i + 1) / 2
		var sum float64
		row := m.data[base : base+i+1]
		for j, a := range row {
			sum += a * x[j]
		}
		// Upper part via the transposed packed entries: element (j, i) sits
		// at offset(j) + i with offset advancing by j+1 per row, so the walk
		// is a single running offset instead of a multiply per element.
		off := base + i + 1 + i // (i+1)(i+2)/2 + i
		for j := i + 1; j < m.n; j++ {
			sum += m.data[off] * x[j]
			off += j + 1
		}
		y[i] = sum
	})
}

// SolveCGParallel is SolveCG with the matrix-vector products distributed
// over the given number of workers. Results are identical to SolveCG up to
// floating-point association in the row sums.
func SolveCGParallel(a *SymMatrix, b []float64, opt CGOptions, workers int) (CGResult, error) {
	if workers <= 1 {
		return SolveCG(a, b, opt)
	}
	pa := &parallelOperator{m: a, workers: workers}
	return solveCGWith(pa, a.Diag(), b, opt)
}

// NewCholeskyParallel is NewCholeskyBlocked at the given worker count, kept
// for existing callers.
//
// Deprecated: use NewCholeskyBlocked(a, FactorOpts{Workers: workers}).
func NewCholeskyParallel(a *SymMatrix, workers int) (*Cholesky, error) {
	return NewCholeskyBlocked(a, FactorOpts{Workers: workers})
}

type parallelOperator struct {
	m       *SymMatrix
	workers int
}

func (p *parallelOperator) Order() int           { return p.m.Order() }
func (p *parallelOperator) Apply(x, y []float64) { p.m.MulVecParallel(x, y, p.workers) }
