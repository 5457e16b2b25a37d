package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"earthing/internal/faultinject"
)

// spdMatrix builds a deterministic, well-conditioned SPD matrix of order n:
// B·Bᵀ + n·I with B filled from a xorshift stream.
func spdMatrix(n int, seed uint64) *SymMatrix {
	b := make([]float64, n*n)
	for i := range b {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		b[i] = float64(seed%2000)/1000 - 1
	}
	a := NewSymMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b[i*n+k] * b[j*n+k]
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	return a
}

// nearSingular builds an SPD matrix with one eigenvalue shrunk to eps of the
// rest: Q·D·Qᵀ with a Householder Q, exercising the factorizations close to
// the positive-definiteness boundary.
func nearSingular(n int, eps float64) *SymMatrix {
	// Householder vector v = normalized ones.
	inv := 1 / math.Sqrt(float64(n))
	a := NewSymMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			// Q = I − 2vvᵀ, D = diag(eps, 1, 1, …): A = Q D Qᵀ.
			var s float64
			for k := 0; k < n; k++ {
				d := 1.0
				if k == 0 {
					d = eps
				}
				qik := -2 * inv * inv
				if i == k {
					qik++
				}
				qjk := -2 * inv * inv
				if j == k {
					qjk++
				}
				s += qik * d * qjk
			}
			a.Set(i, j, s)
		}
	}
	return a
}

func rhs(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)/3
	}
	return b
}

// equivalenceSizes spans 1…300 including panel-boundary cases around the
// default block size 64 and the small-block sizes the suite re-runs with.
var equivalenceSizes = []int{1, 2, 3, 5, 8, 13, 21, 34, 63, 64, 65, 100, 127, 128, 129, 200, 300}

// TestBlockedCholeskyBitIdentical pins the float64 blocked factorization to
// the reference column sweep bit for bit: factor, solve, Det and LogDet, at
// several block sizes and worker widths, across sizes 1…300 and two input
// families (xorshift-built and Gaussian-entry SPD matrices).
func TestBlockedCholeskyBitIdentical(t *testing.T) {
	type input struct {
		name string
		a    *SymMatrix
	}
	var inputs []input
	for _, n := range equivalenceSizes {
		inputs = append(inputs, input{fmt.Sprintf("xorshift n=%d", n), spdMatrix(n, uint64(n)*0x9e3779b9+1)})
	}
	r := rand.New(rand.NewSource(44))
	for _, n := range []int{64, 128, 200} {
		inputs = append(inputs, input{fmt.Sprintf("gaussian n=%d", n), randSPD(n, r)})
	}
	for _, in := range inputs {
		a, n := in.a, in.a.Order()
		ref, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		b := rhs(n)
		xRef, err := ref.Solve(b)
		if err != nil {
			t.Fatalf("%s: reference solve: %v", in.name, err)
		}
		for _, opt := range []FactorOpts{
			{},
			{BlockSize: 8},
			{Workers: 4},
			{BlockSize: 48, Workers: 4},
			{BlockSize: 64, Workers: 8},
		} {
			bl, err := NewCholeskyBlocked(a, opt)
			if err != nil {
				t.Fatalf("%s opt=%+v: blocked: %v", in.name, opt, err)
			}
			for i, v := range bl.l {
				if v != ref.l[i] {
					t.Fatalf("%s opt=%+v: factor entry %d: blocked %v != reference %v", in.name, opt, i, v, ref.l[i])
				}
			}
			x, err := bl.Solve(b)
			if err != nil {
				t.Fatalf("%s opt=%+v: blocked solve: %v", in.name, opt, err)
			}
			for i := range x {
				if x[i] != xRef[i] {
					t.Fatalf("%s opt=%+v: solution entry %d: blocked %v != reference %v", in.name, opt, i, x[i], xRef[i])
				}
			}
			if bl.Det() != ref.Det() || bl.LogDet() != ref.LogDet() {
				t.Fatalf("%s opt=%+v: Det/LogDet mismatch: (%v, %v) != (%v, %v)",
					in.name, opt, bl.Det(), bl.LogDet(), ref.Det(), ref.LogDet())
			}
		}
	}
}

// TestBlockedCholeskyNearSingular runs both factorizations at the
// positive-definiteness boundary: for solvable eps they must agree bit for
// bit; for an indefinite perturbation both must fail with
// ErrNotPositiveDefinite.
func TestBlockedCholeskyNearSingular(t *testing.T) {
	for _, n := range []int{5, 65, 130} {
		for _, eps := range []float64{1e-8, 1e-12} {
			a := nearSingular(n, eps)
			ref, refErr := NewCholesky(a)
			bl, blErr := NewCholeskyBlocked(a, FactorOpts{BlockSize: 32, Workers: 4})
			if (refErr == nil) != (blErr == nil) {
				t.Fatalf("n=%d eps=%g: reference err %v, blocked err %v", n, eps, refErr, blErr)
			}
			if refErr != nil {
				continue
			}
			for i, v := range bl.l {
				if v != ref.l[i] {
					t.Fatalf("n=%d eps=%g: factor entry %d differs", n, eps, i)
				}
			}
		}
	}
	// Indefinite inputs: the smallest eigenvalue flipped negative, and a
	// diagonal with one negative pivot deep in a parallel-width factor.
	negPivot := NewSymMatrix(200)
	for i := 0; i < 200; i++ {
		negPivot.Set(i, i, 1)
	}
	negPivot.Set(150, 150, -1)
	for _, a := range []*SymMatrix{nearSingular(5, -1e-3), nearSingular(65, -1e-3), nearSingular(130, -1e-3), negPivot} {
		n := a.Order()
		if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("n=%d: reference accepted an indefinite matrix: %v", n, err)
		}
		for _, opt := range []FactorOpts{{}, {Workers: 4}} {
			if _, err := NewCholeskyBlocked(a, opt); !errors.Is(err, ErrNotPositiveDefinite) {
				t.Fatalf("n=%d opt=%+v: blocked accepted an indefinite matrix: %v", n, opt, err)
			}
		}
	}
}

// TestMixedPrecisionRefinement checks the mixed-precision accuracy contract:
// the refined solution matches the full-precision one to float64 working
// accuracy (≪ the 1e-10 acceptance bar), while the unrefined float32-updated
// factor alone is visibly coarser than the reference.
func TestMixedPrecisionRefinement(t *testing.T) {
	for _, n := range []int{150, 300} {
		a := spdMatrix(n, 7)
		b := rhs(n)
		ref, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		xRef, err := ref.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := NewCholeskyBlocked(a, FactorOpts{BlockSize: 48, Workers: 2, Mixed: true})
		if err != nil {
			t.Fatalf("n=%d: mixed factor: %v", n, err)
		}
		x, err := mixed.Solve(b)
		if err != nil {
			t.Fatalf("n=%d: mixed solve: %v", n, err)
		}
		var maxRel float64
		for i := range x {
			rel := math.Abs(x[i]-xRef[i]) / math.Max(1e-300, math.Abs(xRef[i]))
			if rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel > 1e-12 {
			t.Fatalf("n=%d: refined mixed solution off by %g relative", n, maxRel)
		}
		// The raw mixed factor (no refinement) must be measurably coarser —
		// proving refinement is doing real work, not that float32 was free.
		raw := make([]float64, n)
		mixed.solveInto(raw, b)
		var rawRel float64
		for i := range raw {
			rel := math.Abs(raw[i]-xRef[i]) / math.Max(1e-300, math.Abs(xRef[i]))
			if rel > rawRel {
				rawRel = rel
			}
		}
		if rawRel < 1e-9 {
			t.Fatalf("n=%d: unrefined mixed solution suspiciously exact (%g); float32 path not engaged?", n, rawRel)
		}
	}
}

// TestMixedPrecisionRefusesGarbage pins the no-silent-degradation contract:
// on a system too ill-conditioned for the float32 factor to contract,
// Solve returns ErrRefinementStalled instead of a half-refined solution.
func TestMixedPrecisionRefusesGarbage(t *testing.T) {
	n := 120
	a := nearSingular(n, 1e-13)
	mixed, err := NewCholeskyBlocked(a, FactorOpts{BlockSize: 32, Mixed: true})
	if err != nil {
		// The float32 downdates may already break positive definiteness at
		// this conditioning; that is an acceptable loud failure too.
		if errors.Is(err, ErrNotPositiveDefinite) {
			return
		}
		t.Fatal(err)
	}
	if _, err := mixed.Solve(rhs(n)); !errors.Is(err, ErrRefinementStalled) {
		t.Fatalf("expected ErrRefinementStalled on a cond≈1e13 system, got %v", err)
	}
}

// TestConditionEstimateCached pins the handle-level cache: the estimate
// matches the free-function estimator and repeated calls return the first
// result without re-running the iteration.
func TestConditionEstimateCached(t *testing.T) {
	a := spdMatrix(80, 3)
	want, err := ConditionEstimate(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewCholeskyBlocked(a, FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ch.ConditionEstimate(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("handle estimate %v != free estimate %v", got, want)
	}
	// A second call must serve the cache even with absurd iteration counts.
	again, err := ch.ConditionEstimate(a, 1)
	if err != nil || again != got {
		t.Fatalf("cached estimate changed: %v (err %v)", again, err)
	}
}

// TestCholeskyPanelFaultPoint proves the faultinject site is live: poisoning
// the first panel pivot surfaces as a typed ErrNotPositiveDefinite, the
// failure mode the sweep isolates per scenario.
func TestCholeskyPanelFaultPoint(t *testing.T) {
	defer faultinject.Set(faultinject.CholeskyPanel, faultinject.Once(faultinject.PoisonNaN()))()
	a := spdMatrix(100, 11)
	if _, err := NewCholeskyBlocked(a, FactorOpts{BlockSize: 32}); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("poisoned panel did not fail the factorization: %v", err)
	}
}

func benchmarkMatrix(n int) *SymMatrix { return spdMatrix(n, 42) }

// BenchmarkCholeskyReference / BenchmarkCholeskyBlocked are the CI bench
// smoke pair for the factorization rewrite (single-thread).
func BenchmarkCholeskyReference(b *testing.B) {
	a := benchmarkMatrix(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyBlocked(b *testing.B) {
	a := benchmarkMatrix(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholeskyBlocked(a, FactorOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyBlockedMixed(b *testing.B) {
	a := benchmarkMatrix(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholeskyBlocked(a, FactorOpts{Mixed: true}); err != nil {
			b.Fatal(err)
		}
	}
}
