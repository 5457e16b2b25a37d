// Package linalg implements the dense linear algebra required by the
// Galerkin boundary-element solver: packed symmetric matrices, the blocked
// Cholesky direct factorization, and a conjugate-gradient solver with Jacobi
// (diagonal) preconditioning — the method the paper identifies as the most
// efficient for large grounding systems (§4.3).
//
// Galerkin BEM matrices are symmetric positive definite but fully dense, so
// the package stores only the lower triangle in packed row-major order,
// halving memory against a square layout.
package linalg

import (
	"fmt"
	"math"
)

// SymMatrix is a symmetric n×n matrix holding only the lower triangle in
// packed row-major order: element (i, j) with i ≥ j lives at i(i+1)/2 + j.
type SymMatrix struct {
	n    int
	data []float64
}

// NewSymMatrix returns a zero symmetric matrix of order n.
func NewSymMatrix(n int) *SymMatrix {
	if n < 0 {
		panic(fmt.Sprintf("linalg: negative matrix order %d", n))
	}
	return &SymMatrix{n: n, data: make([]float64, n*(n+1)/2)}
}

// Order returns the matrix dimension n.
func (m *SymMatrix) Order() int { return m.n }

// index maps (i, j), i ≥ j, to packed storage.
func (m *SymMatrix) index(i, j int) int { return i*(i+1)/2 + j }

// At returns element (i, j).
func (m *SymMatrix) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	return m.data[m.index(i, j)]
}

// Set assigns element (i, j) (and by symmetry (j, i)).
func (m *SymMatrix) Set(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	m.data[m.index(i, j)] = v
}

// Add accumulates v into element (i, j).
func (m *SymMatrix) Add(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	m.data[m.index(i, j)] += v
}

// Diag returns a copy of the diagonal, walking the packed storage with a
// running offset (diagonal i sits at offset(i)+i, advancing by i+2 per row)
// instead of one index product per element.
func (m *SymMatrix) Diag() []float64 {
	d := make([]float64, m.n)
	off := 0
	for i := 0; i < m.n; i++ {
		d[i] = m.data[off]
		off += i + 2
	}
	return d
}

// MulVec computes y = A·x. y must have length n and may not alias x.
func (m *SymMatrix) MulVec(x, y []float64) {
	if len(x) != m.n || len(y) != m.n {
		panic("linalg: MulVec dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	// Walk the packed lower triangle once, scattering the symmetric
	// contribution: row i covers y[i] += a·x[j] and y[j] += a·x[i].
	k := 0
	for i := 0; i < m.n; i++ {
		var yi float64
		xi := x[i]
		for j := 0; j < i; j++ {
			a := m.data[k]
			k++
			yi += a * x[j]
			y[j] += a * xi
		}
		yi += m.data[k] * xi // diagonal
		k++
		y[i] += yi
	}
}

// Clone returns a deep copy of the matrix.
func (m *SymMatrix) Clone() *SymMatrix {
	c := &SymMatrix{n: m.n, data: make([]float64, len(m.data))}
	copy(c.data, m.data)
	return c
}

// Scale multiplies every entry by s in place.
func (m *SymMatrix) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// MaxAbs returns the largest entry magnitude (0 for an empty matrix).
func (m *SymMatrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// AllFinite reports whether every stored entry is finite (no NaN or ±Inf) —
// the cheap O(N²) pre-solve guard of the numerical health checks.
func (m *SymMatrix) AllFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Dense expands the matrix into a full row-major n×n slice (for tests and
// small-problem debugging only).
func (m *SymMatrix) Dense() [][]float64 {
	d := make([][]float64, m.n)
	for i := range d {
		d[i] = make([]float64, m.n)
		for j := range d[i] {
			d[i][j] = m.At(i, j)
		}
	}
	return d
}
