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

// TestFootprintCountsSharedLadderWhole pins how Footprint counts a Ladder
// that several assemblers share (a sweep's mesh groups, a design search's
// candidates): whole, in each assembler, with the tables and panels every
// one of them built. Each holds the ladder alive, so summing over them
// overstates their joint bytes — the conservative side for groundd's
// byte-bounded cache.
func TestFootprintCountsSharedLadderWhole(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.4)
	cfg := Config{GPR: 1, Solver: Cholesky, BEM: bem.Options{Workers: 1}}
	lad := bem.NewLadder(model, cfg.BEM)
	build := func(g *grid.Grid, shared bool) *bem.Assembler {
		t.Helper()
		mesh, _, err := BuildMesh(g, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !shared {
			a, err := bem.New(mesh, model, cfg.BEM)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		geo, err := bem.NewGeometry(mesh, cfg.BEM)
		if err != nil {
			t.Fatal(err)
		}
		a, err := bem.NewShared(geo, model, cfg.BEM, lad)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	assemble := func(a *bem.Assembler) {
		t.Helper()
		if _, _, err := a.MatrixCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ga := grid.RectMesh(0, 0, 30, 30, 6, 6, 0.8, 0.006)
	gb := grid.RectMesh(0, 0, 40, 25, 5, 5, 0.6, 0.006) // another depth: other tables

	a := build(ga, true)
	aFresh := a.Footprint()
	assemble(a)
	aTables := a.Footprint() - aFresh
	if aTables <= 0 {
		t.Fatalf("assembling grew the footprint by %d B", aTables)
	}
	// b counts a's tables from the start: its footprint exceeds a private
	// twin's by exactly those bytes.
	b := build(gb, true)
	if d := b.Footprint() - build(gb, false).Footprint(); d != aTables {
		t.Errorf("fresh assembler on the shared ladder counts %d B beyond a private one, want a's %d B of tables", d, aTables)
	}
	// And a counts the tables b builds.
	bBefore, aBefore := b.Footprint(), a.Footprint()
	assemble(b)
	grown := b.Footprint() - bBefore
	if grown <= 0 {
		t.Fatalf("b's assembly built no tables (%d B)", grown)
	}
	if d := a.Footprint() - aBefore; d != grown {
		t.Errorf("a's footprint grew %d B while b built %d B of tables", d, grown)
	}
}
