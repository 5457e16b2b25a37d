package post

import (
	"context"
	"math"
	"testing"

	"earthing/internal/geom"
)

func TestCrossSection(t *testing.T) {
	res := solved(t)
	cs, err := CrossSection(context.Background(), res.Assembler(), res.Sigma, res.GPR, -10, 10, 30, 10, 5, SurfaceOptions{NX: 21, NY: 11})
	if err != nil {
		t.Fatal(err)
	}
	if cs.NX != 21 || cs.NY != 11 {
		t.Fatal("dims wrong")
	}
	// Row 0 is the surface; values match direct evaluation.
	x0, d0 := cs.Pos(5, 0)
	want := res.PotentialAt(geom.V(-10+x0, 10, d0))
	if math.Abs(cs.At(5, 0)-want) > 1e-9*(1+want) {
		t.Errorf("surface row %v vs direct %v", cs.At(5, 0), want)
	}
	// The maximum sits near electrode depth (0.8 m) within the grid, not at
	// the bottom of the section.
	var bi, bj int
	best := math.Inf(-1)
	for j := 0; j < cs.NY; j++ {
		for i := 0; i < cs.NX; i++ {
			if v := cs.At(i, j); v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	_, depth := cs.Pos(bi, bj)
	if depth > 2.0 {
		t.Errorf("potential max at depth %v, expected near the electrodes", depth)
	}
	// Deepest row is everywhere below the surface row over the grid (the
	// potential decays away from the electrodes).
	for i := 8; i < 13; i++ { // columns over the grid
		if cs.At(i, cs.NY-1) >= cs.At(i, 2) {
			t.Errorf("no decay with depth at column %d", i)
		}
	}
}

func TestCrossSectionParallelDeterministic(t *testing.T) {
	res := solved(t)
	ctx := context.Background()
	a, err := CrossSection(ctx, res.Assembler(), res.Sigma, res.GPR, 0, 0, 20, 20, 4, SurfaceOptions{NX: 9, NY: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossSection(ctx, res.Assembler(), res.Sigma, res.GPR, 0, 0, 20, 20, 4, SurfaceOptions{NX: 9, NY: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.V {
		if a.V[i] != b.V[i] {
			t.Fatalf("parallel cross-section differs at %d", i)
		}
	}
}
