package core

import (
	"context"
	"runtime"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// TestFootprintTracksRetainedHeap pins Result.Footprint to the heap a cached
// lattice result really retains — the shared image ladder, the field-
// evaluation plans its flat-kernel solve and one surface raster built, the
// quadrature geometry, mesh and density — within a factor of two.
func TestFootprintTracksRetainedHeap(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.4)
	var pts []geom.Vec3
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			pts = append(pts, geom.V(-5+2*float64(i), -5+2*float64(j), 0))
		}
	}
	out := make([]float64, len(pts))
	const n = 6
	kept := make([]*Result, 0, n)
	before := retainedHeap()
	for i := 0; i < n; i++ {
		g := grid.RectMesh(0, 0, 30+float64(i), 30, 6, 6, 0.8, 0.006)
		for _, c := range [][2]float64{{0, 0}, {30 + float64(i), 0}, {0, 30}, {30 + float64(i), 30}} {
			g.AddRod(c[0], c[1], 0.8, 3, 0.007)
		}
		res, err := AnalyzeCtx(context.Background(), g, model, Config{GPR: 1, Solver: Cholesky, BEM: bem.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Assembler().Evaluator().PotentialBatchCtx(context.Background(), pts, res.Sigma, 1, out, bem.BatchOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, res)
	}
	perResult := float64(retainedHeap()-before) / n
	var fp float64
	for _, r := range kept {
		fp += float64(r.Footprint()) / n
	}
	t.Logf("retained %.0f B per result, Footprint %.0f B", perResult, fp)
	if fp < perResult/2 || fp > 2*perResult {
		t.Errorf("Footprint %.0f B is not within 2× of the retained heap %.0f B per result", fp, perResult)
	}
}

// retainedHeap returns the live heap bytes after a full collection.
func retainedHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
