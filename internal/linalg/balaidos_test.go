package linalg_test

import (
	"context"
	"math"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// TestBlockedMatchesReferenceOnBalaidos: on the Galerkin systems of the
// Balaidos soil cases B and C (§5.2), the blocked factorization reproduces
// the textbook column sweep's solution and grid resistance bit for bit, at
// one and at several workers.
func TestBlockedMatchesReferenceOnBalaidos(t *testing.T) {
	for _, c := range []struct {
		name  string
		model soil.Model
		rods  int
	}{
		{"B", soil.NewTwoLayer(0.0025, 0.020, 0.7), 2},
		{"C", soil.NewTwoLayer(0.0025, 0.020, 1.0), 1},
	} {
		mesh, _, err := core.BuildMesh(grid.Balaidos(), c.model, core.Config{RodElements: c.rods})
		if err != nil {
			t.Fatal(err)
		}
		asm, err := bem.New(mesh, c.model, bem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := asm.MatrixCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rhs := bem.RHS(mesh)
		ref, err := linalg.ReferenceCholesky(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		wantReq := 1 / bem.TotalCurrent(mesh, want)
		for _, workers := range []int{1, 3} {
			ch, err := linalg.NewCholeskyBlocked(r, linalg.FactorOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ch.Solve(rhs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("soil %s, %d workers: σ[%d] blocked %v reference %v", c.name, workers, i, got[i], want[i])
				}
			}
			if req := 1 / bem.TotalCurrent(mesh, got); math.Float64bits(req) != math.Float64bits(wantReq) {
				t.Errorf("soil %s, %d workers: Req blocked %v reference %v", c.name, workers, req, wantReq)
			}
		}
	}
}
