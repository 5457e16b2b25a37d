package linalg

import "math"

// EstimateExtremeEigenvalues estimates the largest and smallest eigenvalues
// of an SPD matrix by power iteration on A and inverse iteration through a
// Cholesky factorization. It is a diagnostic for the conditioning of the
// Galerkin grounding matrices (well conditioned for sane discretizations —
// the reason plain Jacobi-PCG converges in few iterations, §4.3).
func EstimateExtremeEigenvalues(a *SymMatrix, iters int) (min, max float64, err error) {
	if a.Order() == 0 {
		return 0, 0, nil
	}
	ch, err := NewCholeskyBlocked(a, FactorOpts{})
	if err != nil {
		return 0, 0, err
	}
	return extremeEigenvalues(a, ch, iters)
}

// extremeEigenvalues is the shared estimator core: power iteration on a for
// λmax, inverse iteration through the provided factorization for λmin. The
// factorization may come from any of the Cholesky constructors; the inverse
// iteration normalizes every step, so the O(1e-7) perturbation of a
// mixed-precision factor does not disturb the leading digits of the
// estimate (it is a diagnostic, quoted to ~3 digits).
func extremeEigenvalues(a *SymMatrix, ch *Cholesky, iters int) (min, max float64, err error) {
	n := a.Order()
	if n == 0 {
		return 0, 0, nil
	}
	if iters <= 0 {
		iters = 60
	}

	// Deterministic pseudo-random start vector (reproducible diagnostics).
	v := make([]float64, n)
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range v {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		v[i] = float64(seed%2000)/1000 - 1
	}
	normalize := func(x []float64) {
		s := Norm2(x)
		if s == 0 {
			x[0] = 1
			return
		}
		for i := range x {
			x[i] /= s
		}
	}
	normalize(v)

	// Power iteration for λmax.
	w := make([]float64, n)
	for k := 0; k < iters; k++ {
		a.MulVec(v, w)
		copy(v, w)
		normalize(v)
	}
	a.MulVec(v, w)
	max = Dot(v, w)

	// Inverse iteration for λmin, reusing the factorization's triangular
	// sweeps directly (no per-step allocation or refinement).
	for i := range v {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		v[i] = float64(seed%2000)/1000 - 1
	}
	normalize(v)
	for k := 0; k < iters; k++ {
		ch.solveInto(w, v)
		copy(v, w)
		normalize(v)
	}
	a.MulVec(v, w)
	min = Dot(v, w)
	if min > max {
		min, max = max, min
	}
	return min, max, nil
}

// ConditionEstimate returns the 2-norm condition number estimate
// λmax/λmin of an SPD matrix. Callers that already hold a Cholesky handle
// of a should prefer its ConditionEstimate method, which reuses the
// factorization and caches the result.
func ConditionEstimate(a *SymMatrix, iters int) (float64, error) {
	min, max, err := EstimateExtremeEigenvalues(a, iters)
	if err != nil {
		return 0, err
	}
	if min <= 0 {
		return math.Inf(1), nil
	}
	return max / min, nil
}
