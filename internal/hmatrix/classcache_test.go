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
	if f.classes.Len() >= pairs {
		t.Errorf("class cache holds %d classes for %d pairs; want sharing", f.classes.Len(), pairs)
	}
}

// TestClassCachePairIndexMatchesMap: the filler's per-block pair index
// answers exactly as a map cleared at every reset would, across growth, many
// resets and a generation wrap-around; and the filler's pair cache, reset
// between blocks, serves bitwise the per-pair evaluation.
func TestClassCachePairIndexMatchesMap(t *testing.T) {
	var x pairIndex
	ref := map[uint64]int32{}
	rng := uint64(1)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	for block := 0; block < 40; block++ {
		if block == 30 {
			x.gen = math.MaxUint32 // the next reset wraps
		}
		x.reset()
		clear(ref)
		n := 1 + int(next()%3000)
		for i := 0; i < n; i++ {
			key := next()%512<<32 | next()%512
			got, ok := x.find(key)
			want, wok := ref[key]
			if ok != wok || ok && got != want {
				t.Fatalf("block %d: find(%#x) = %d, %v; map %d, %v", block, key, got, ok, want, wok)
			}
			if !ok {
				x.insert(key, int32(len(ref)))
				ref[key] = int32(len(ref))
			}
		}
		if x.n != len(ref) {
			t.Fatalf("block %d: %d live slots, map holds %d", block, x.n, len(ref))
		}
	}

	g := grid.RectMesh(0, 0, 20, 20, 4, 4, 0.8, 0.006)
	s := buildSystem(t, g, soil.NewTwoLayer(0.005, 0.016, 1.0), 0)
	k := s.mesh.DoFCount()
	f := newFiller(s.asm, adjacency(s.mesh), k, s.asm.NewColumnScratch())
	cs := s.asm.NewColumnScratch()
	want := make([]float64, k*k)
	m := len(s.mesh.Elements)
	for block := 0; block < 3; block++ {
		f.resetCache()
		for i := 0; i < 4*m; i++ {
			e1, e2 := int(next()%uint64(m)), int(next()%uint64(m))
			got := f.pair(e1, e2)
			s.asm.PairMatrix(max(e1, e2), min(e1, e2), want, cs)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("block %d pair (%d,%d) entry %d: cached %v, fresh %v", block, e1, e2, j, got[j], want[j])
				}
			}
		}
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
