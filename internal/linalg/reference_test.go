package linalg

import (
	"fmt"
	"math"
)

// referenceCholesky factorizes the symmetric positive definite matrix a
// with the textbook column sweep, walking each packed row segment linearly.
// The input matrix is not modified. O(n³/3) operations, matching the
// direct-solve cost quoted in §4.3 of the paper. It is the oracle
// NewCholeskyBlocked is pinned against: the blocked float64 factor is
// bit-identical at every tile size and worker count.
func referenceCholesky(a *SymMatrix) (*Cholesky, error) {
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
