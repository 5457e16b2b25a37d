package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestMulVecParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 10, 64, 65, 137, 300} {
		a := randSPD(n, r)
		x := randVector(n, r)
		ys := make([]float64, n)
		yp := make([]float64, n)
		a.MulVec(x, ys)
		for _, w := range []int{1, 2, 4, 7} {
			a.MulVecParallel(x, yp, w)
			for i := range ys {
				if math.Abs(ys[i]-yp[i]) > 1e-10*(1+math.Abs(ys[i])) {
					t.Fatalf("n=%d w=%d: row %d: %v vs %v", n, w, i, yp[i], ys[i])
				}
			}
		}
	}
}

func TestSolveCGParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for _, n := range []int{50, 150} {
		a := randSPD(n, r)
		b := randVector(n, r)
		serial, err := SolveCG(a, b, CGOptions{Tol: 1e-12})
		if err != nil || !serial.Converged {
			t.Fatalf("serial CG: %v", err)
		}
		par, err := SolveCGParallel(a, b, CGOptions{Tol: 1e-12}, 4)
		if err != nil || !par.Converged {
			t.Fatalf("parallel CG: %v", err)
		}
		for i := range serial.X {
			if math.Abs(serial.X[i]-par.X[i]) > 1e-7*(1+math.Abs(serial.X[i])) {
				t.Fatalf("n=%d: x[%d] %v vs %v", n, i, par.X[i], serial.X[i])
			}
		}
	}
	// workers ≤ 1 routes to the serial path.
	a := randSPD(20, r)
	b := randVector(20, r)
	if _, err := SolveCGParallel(a, b, CGOptions{}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for _, n := range []int{64, 128, 200} { // one default panel, and several
		a := randSPD(n, r)
		b := randVector(n, r)
		serial, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewCholeskyParallel(a, 4)
		if err != nil {
			t.Fatal(err)
		}
		xs, err := serial.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		xp, err := par.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if math.Abs(xs[i]-xp[i]) > 1e-9*(1+math.Abs(xs[i])) {
				t.Fatalf("n=%d: x[%d] %v vs %v", n, i, xp[i], xs[i])
			}
		}
		if math.Abs(serial.LogDet()-par.LogDet()) > 1e-9*(1+math.Abs(serial.LogDet())) {
			t.Fatalf("n=%d: log det %v vs %v", n, par.LogDet(), serial.LogDet())
		}
	}
}

func TestCholeskyParallelRejectsIndefinite(t *testing.T) {
	a := NewSymMatrix(200)
	for i := 0; i < 200; i++ {
		a.Set(i, i, 1)
	}
	a.Set(150, 150, -1)
	if _, err := NewCholeskyParallel(a, 4); err == nil {
		t.Error("indefinite matrix accepted")
	}
}

func BenchmarkMulVecParallel(b *testing.B) {
	a := randSPD(800, rand.New(rand.NewSource(1)))
	x := randVector(800, rand.New(rand.NewSource(2)))
	y := make([]float64, 800)
	for _, w := range []int{1, 4} {
		b.Run(map[bool]string{true: "serial", false: "parallel4"}[w == 1], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.MulVecParallel(x, y, w)
			}
		})
	}
}
