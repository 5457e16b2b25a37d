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
// storage. Obtain one from NewCholeskyBlocked (tiled panels), the one
// factorization; the package tests pin it bit for bit to a textbook column
// sweep.
type Cholesky struct {
	n int
	l []float64 // packed lower triangle of L

	// condOnce caches the first ConditionEstimate so repeated health checks
	// sharing one factorization (cached unit-GPR solves, sweep columns) pay
	// the power iteration once.
	condOnce sync.Once
	condVal  float64
	condErr  error
}

// Solve returns x with A·x = b.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), c.n)
	}
	x := make([]float64, c.n)
	c.solveInto(x, b)
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
