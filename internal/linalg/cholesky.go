package linalg

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrNotPositiveDefinite is returned by Cholesky factorization when a pivot
// is non-positive. For a Galerkin grounding matrix this indicates a modelling
// error (e.g. duplicated elements or a degenerate discretization).
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ in packed
// storage. Obtain one from NewCholeskyBlocked (tiled panels, optionally
// mixed precision), the production factorization, or NewCholesky (the
// reference column sweep it is pinned against).
type Cholesky struct {
	n int
	l []float64 // packed lower triangle of L

	// workers is the parallel width the factorization ran at; refinement
	// residuals reuse it for their matrix-vector products.
	workers int
	// refineA is the factored matrix, retained only by mixed-precision
	// handles: Solve then runs float64 iterative refinement against it.
	// refineNorm is its infinity norm, the scale of the residual floor.
	refineA    *SymMatrix
	refineNorm float64

	// condOnce caches the first ConditionEstimate so repeated health checks
	// sharing one factorization (cached unit-GPR solves, sweep columns) pay
	// the power iteration once.
	condOnce sync.Once
	condVal  float64
	condErr  error
}

// NewCholesky factorizes the symmetric positive definite matrix a. The input
// matrix is not modified. O(n³/3) operations, matching the direct-solve cost
// quoted in §4.3 of the paper. This is the reference factorization the
// blocked variant is pinned against; its per-column sweep walks each packed
// row segment linearly. Only tests and the paperbench assembly ablations
// (internal/experiments) call it: production code factors with
// NewCholeskyBlocked, whose float64 factor is bit-identical.
func NewCholesky(a *SymMatrix) (*Cholesky, error) {
	n := a.n
	l := make([]float64, len(a.data))
	copy(l, a.data)
	for j := 0; j < n; j++ {
		jb := rowBase(j)
		d := l[jb+j]
		rowJ := l[jb : jb+j]
		for _, v := range rowJ {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, j, d)
		}
		dj := math.Sqrt(d)
		l[jb+j] = dj
		for i := j + 1; i < n; i++ {
			ib := rowBase(i)
			s := l[ib+j]
			rowI := l[ib : ib+j]
			for k, v := range rowJ {
				s -= rowI[k] * v
			}
			l[ib+j] = s / dj
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Solve returns x with A·x = b. On a mixed-precision handle the triangular
// solves are followed by float64 iterative refinement on the residual until
// it reaches the float64 backward-error floor (see refine); if refinement
// cannot contract (hopelessly ill-conditioned system), ErrRefinementStalled
// is returned rather than a silently degraded solution.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), c.n)
	}
	x := make([]float64, c.n)
	c.solveInto(x, b)
	if c.refineA == nil {
		return x, nil
	}
	if err := c.refine(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// solveInto solves A·x = b into x (len n, may not alias b) by forward and
// back substitution. Both sweeps subtract products term by term in the same
// ascending order as the textbook loops, so the result is bit-identical
// regardless of which factorization built L; the forward sweep walks packed
// rows linearly and the back sweep replaces the per-element index product
// with an incremental offset (off += j+1), keeping the reference operation
// order over column i (a bit-identity the panel-reordered form would lose).
func (c *Cholesky) solveInto(x, b []float64) {
	l := c.l
	// Forward substitution L·y = b: row i's coefficients are contiguous.
	base := 0
	for i := 0; i < c.n; i++ {
		s := b[i]
		row := l[base : base+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s / l[base+i]
		base += i + 1
	}
	// Back substitution Lᵀ·x = y: column i of L, walked with an incremental
	// packed offset.
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		off := rowBase(i+1) + i
		for j := i + 1; j < c.n; j++ {
			s -= l[off] * x[j]
			off += j + 1
		}
		x[i] = s / l[rowBase(i)+i]
	}
}

// refineMaxIter bounds refinement; a float32 factor of a sanely conditioned
// system contracts by ~1e-7 per step, so 2–3 steps suffice and 40 means the
// iteration is not contracting at all.
const refineMaxIter = 40

// refine runs float64 iterative refinement x ← x + A⁻¹(b − A·x) in place,
// using the (mixed-precision) factor as the approximate inverse. It stops at
// the residual floor of LAPACK's DSPOSV, ‖b − A·x‖∞ ≤ √n·ε·‖A‖∞·‖x‖∞: an x
// meeting it is a float64-accurate solution (small backward error), even
// when the last correction sits at round-off and no longer contracts.
// Returns ErrRefinementStalled when the residual stops contracting above
// that floor — the caller must fall back to a full-precision factorization.
func (c *Cholesky) refine(x, b []float64) error {
	n := c.n
	r := make([]float64, n)
	d := make([]float64, n)
	floor := math.Sqrt(float64(n)) * epsilon * c.refineNorm
	prev := math.Inf(1)
	for it := 0; it < refineMaxIter; it++ {
		// r = b − A·x in float64 against the original matrix.
		c.refineA.MulVecParallel(x, r, c.workers)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		normR := maxAbs(r)
		if normR <= floor*maxAbs(x) {
			return nil
		}
		// Not contracting by at least 2× per step means the float32 factor
		// is no contraction for this system; more steps will oscillate.
		if normR > 0.5*prev {
			return fmt.Errorf("%w: residual %.3g above floor %.3g after %d iterations",
				ErrRefinementStalled, normR, floor*maxAbs(x), it)
		}
		prev = normR
		c.solveInto(d, r)
		for i := range x {
			x[i] += d[i]
		}
	}
	return fmt.Errorf("%w: residual floor not reached in %d iterations", ErrRefinementStalled, refineMaxIter)
}

// epsilon is the float64 machine epsilon 2⁻⁵².
const epsilon = 0x1p-52

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Det returns the determinant of A (= Π L_ii²).
func (c *Cholesky) Det() float64 {
	det := 1.0
	for i := 0; i < c.n; i++ {
		d := c.l[rowBase(i)+i]
		det *= d * d
	}
	return det
}

// LogDet returns log det A, which stays finite when Det would overflow.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += 2 * math.Log(c.l[rowBase(i)+i])
	}
	return s
}

// ConditionEstimate returns the 2-norm condition estimate λmax/λmin of the
// factored matrix a, reusing this handle's factorization for the inverse
// iteration and caching the result: repeated health checks that share one
// factorization (cached unit-GPR solves, sweep scenarios of one job) pay the
// power iteration once. a must be the matrix this handle factored; iters ≤ 0
// selects the default. The first call's estimate is returned to all callers.
func (c *Cholesky) ConditionEstimate(a *SymMatrix, iters int) (float64, error) {
	c.condOnce.Do(func() {
		min, max, err := extremeEigenvalues(a, c, iters)
		if err != nil {
			c.condErr = err
			return
		}
		if min <= 0 {
			c.condVal = math.Inf(1)
			return
		}
		c.condVal = max / min
	})
	return c.condVal, c.condErr
}
