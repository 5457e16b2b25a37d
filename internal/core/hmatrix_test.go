package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"earthing/internal/faultinject"
	"earthing/internal/grid"
	"earthing/internal/hmatrix"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

func hmatrixTestConfig() Config {
	return Config{
		GPR:        10_000,
		MaxElemLen: 3,
		Solver:     SolverHMatrix,
		HMatrix:    HMatrixConfig{LeafSize: 4},
	}
}

// TestAnalyzeHMatrixMatchesDense runs the full pipeline under SolverHMatrix
// and pins the engineering outputs against the dense PCG reference within
// the documented 10·ε budget.
func TestAnalyzeHMatrixMatchesDense(t *testing.T) {
	g := grid.RectMesh(0, 0, 24, 24, 4, 4, 0.8, 0.006)
	model := soil.NewUniform(0.016)
	cfg := hmatrixTestConfig()

	res, err := AnalyzeCtx(context.Background(), g, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HMatrix.N == 0 {
		t.Fatal("Result.HMatrix stats empty — compressed path not taken")
	}
	if res.HMatrix.LowRank == 0 {
		t.Fatal("no ACA blocks on a 24 m grid at leaf size 4")
	}
	if !res.CG.Converged || res.CG.Iterations == 0 {
		t.Errorf("CG result not recorded: %+v", res.CG)
	}

	denseCfg := cfg
	denseCfg.Solver = PCG
	want, err := AnalyzeCtx(context.Background(), g, model, denseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Req-want.Req) / want.Req; rel > 10*1e-6 {
		t.Errorf("Req %.8g vs dense %.8g (rel %.3g), budget 10·ε", res.Req, want.Req, rel)
	}
}

// TestHMatrixDenseFallbackWarning: when the compressed solve fails on a
// system small enough for the dense path, the analysis degrades gracefully —
// dense PCG result, a Result warning naming the cause, compressed stats
// cleared — instead of failing.
func TestHMatrixDenseFallbackWarning(t *testing.T) {
	g := grid.RectMesh(0, 0, 24, 24, 4, 4, 0.8, 0.006)
	model := soil.NewUniform(0.016)
	cfg := hmatrixTestConfig() // DenseFallbackN 0 → default 2000 ≫ this system

	// Poison every compressed operator application: the CG recurrence breaks
	// down, the dense fallback (which never touches the H-matrix) completes.
	defer faultinject.Set(faultinject.HMatrixCGIter, faultinject.PoisonNaN())()

	res, err := AnalyzeCtx(context.Background(), g, model, cfg)
	if err != nil {
		t.Fatalf("fallback should have absorbed the compressed failure: %v", err)
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "fell back to dense pcg") {
			found = true
		}
	}
	if !found {
		t.Errorf("no fallback warning on Result; warnings: %q", res.Warnings)
	}
	if res.HMatrix.N != 0 {
		t.Errorf("stale compressed stats on a dense-fallback result: %+v", res.HMatrix)
	}

	denseCfg := cfg
	denseCfg.Solver = PCG
	want, err := AnalyzeCtx(context.Background(), g, model, denseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Req != want.Req {
		t.Errorf("fallback Req %v != dense reference %v (must be the identical path)", res.Req, want.Req)
	}
}

// TestHMatrixFallbackDisabled: DenseFallbackN < 0 turns a compressed-tier
// failure into a typed error instead of a dense re-run, at both fault sites
// of the tier — a NaN poisoned into the first ACA cross row fails the build,
// one poisoned into the operator's product vector breaks the CG recurrence —
// and neither failure strands a worker goroutine.
func TestHMatrixFallbackDisabled(t *testing.T) {
	g := grid.RectMesh(0, 0, 24, 24, 4, 4, 0.8, 0.006)
	cfg := hmatrixTestConfig()
	cfg.HMatrix.DenseFallbackN = -1

	for _, tc := range []struct {
		name    string
		point   faultinject.Point
		want    error
		wrapper any
	}{
		{"ACA", faultinject.HMatrixACABlock, hmatrix.ErrNonFinite, new(*hmatrix.BuildError)},
		{"CG", faultinject.HMatrixCGIter, linalg.ErrCGBreakdown, new(*hmatrix.SolveError)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			restore := faultinject.Set(tc.point, faultinject.Once(faultinject.PoisonNaN()))
			_, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.016), cfg)
			restore()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !errors.As(err, tc.wrapper) {
				t.Fatalf("err = %v, want %T in the chain", err, tc.wrapper)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines grew from %d to %d after the failed analysis", before, n)
			}
		})
	}
}
