//go:build !race

package bem_test

import (
	"context"
	"testing"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// Wall-time contracts of the production paths against their closed-form
// oracles, single-threaded. The race detector's instrumentation distorts
// the ratios, so these build without it; -short skips them.

// minWall returns the fastest of n timed runs of f.
func minWall(n int, f func()) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// TestFlatAssemblyFasterThanReference: on Balaidos soil C (§5.2, rods
// crossing the interface) the production pair-class assembly is more than
// 1.2× faster than the closed-form reference matrix at one worker.
func TestFlatAssemblyFasterThanReference(t *testing.T) {
	if testing.Short() {
		t.Skip("times full Balaidos assemblies")
	}
	model := soil.NewTwoLayer(0.0025, 0.020, 1.0)
	mesh, _, err := core.BuildMesh(grid.Balaidos(), model, core.Config{RodElements: 1})
	if err != nil {
		t.Fatal(err)
	}
	asm, err := bem.New(mesh, model, bem.Options{Workers: 1, SeriesTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	flat := minWall(3, func() {
		if _, _, err := asm.MatrixCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	ref := minWall(3, func() { bem.ReferenceMatrix(asm) })
	t.Logf("assembly: flat %v, reference %v (%.2f×)", flat, ref, float64(ref)/float64(flat))
	if float64(ref) <= 1.2*float64(flat) {
		t.Errorf("flat assembly %v not 1.2× faster than the reference %v", flat, ref)
	}
}

// TestBatchedEvaluationFasterThanReference: on a coarse Figure 5.4 raster
// the batched evaluator at one worker beats the closed-form per-point
// potential.
func TestBatchedEvaluationFasterThanReference(t *testing.T) {
	if testing.Short() {
		t.Skip("times the reference oracle over a raster")
	}
	res, pts := fig54Raster(t, 14, 11, 1e-4)
	asm := res.Assembler()
	fe := asm.Evaluator()
	out := make([]float64, len(pts))
	fe.PotentialAt(pts[0], res.Sigma) // build the plan outside the timings
	batch := minWall(3, func() {
		if _, err := fe.PotentialBatchCtx(context.Background(), pts, res.Sigma, 1, out, bem.BatchOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	ref := minWall(3, func() {
		for i, x := range pts {
			out[i] = bem.ReferencePotential(asm, x, res.Sigma)
		}
	})
	t.Logf("%d points: batch %v, reference %v (%.2f×)", len(pts), batch, ref, float64(ref)/float64(batch))
	if batch >= ref {
		t.Errorf("batched evaluation %v not faster than the reference %v", batch, ref)
	}
}
