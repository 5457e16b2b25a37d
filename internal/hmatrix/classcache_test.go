package hmatrix

import (
	"context"
	"math"
	"testing"

	"earthing/internal/grid"
	"earthing/internal/soil"
)

// TestClassCacheMatchesDense: the pair-class cache is always on. A build's
// product stays within 50·ε of the dense matrix, and every elemental matrix
// the class cache serves is bitwise the one a fresh per-pair evaluation
// (bem.PairMatrix, the dense path's arithmetic) yields — the cache changes
// no bit, whichever pair first computed a class.
func TestClassCacheMatchesDense(t *testing.T) {
	g := grid.Interconnected(300, 2)
	s := buildSystem(t, g, soil.NewTwoLayer(0.0025, 0.020, 1.0), 0)

	h, err := Build(context.Background(), s.asm, Params{Eps: 1e-6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := matvecRelErr(t, h, s.dense, 17); got > 50e-6 {
		t.Errorf("cached build matvec error %.3g vs dense; budget 50·ε", got)
	}

	k := s.mesh.DoFCount()
	f := newFiller(s.asm, adjacency(s.mesh), k, s.asm.NewColumnScratch())
	cs := s.asm.NewColumnScratch()
	got, want := make([]float64, k*k), make([]float64, k*k)
	pairs := 0
	for beta := range s.mesh.Elements {
		for alpha := 0; alpha <= beta; alpha++ {
			f.fillPair(beta, alpha, got)
			s.asm.PairMatrix(beta, alpha, want, cs)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("pair (%d,%d) entry %d: class cache %v, fresh %v", beta, alpha, i, got[i], want[i])
				}
			}
			pairs++
		}
	}
	if len(f.classes) >= pairs {
		t.Errorf("class cache holds %d classes for %d pairs; want sharing", len(f.classes), pairs)
	}
}

// TestAllDenseBuildMatchesDense: on an all-near-field partition the build
// evaluates the same pair classes as the dense path, so at any block
// tolerance it reproduces the dense matrix to floating-point association.
func TestAllDenseBuildMatchesDense(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 3, 3, 0.5, 0.01)
	s := buildSystem(t, g, soil.NewUniform(0.02), 3)
	for _, eps := range []float64{1e-8, 1e-6} {
		h, err := Build(context.Background(), s.asm, Params{Eps: eps, Eta: 1e-9, LeafSize: 8, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := matvecRelErr(t, h, s.dense, 9); got > 1e-12 {
			t.Errorf("Eps=%g: all-dense build differs from dense matrix by %.3g", eps, got)
		}
	}
}
