package hmatrix

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// The differential suite pins the compressed tier against the dense
// reference: for a matrix of (grid, soil) systems and (ε, η, leaf-size)
// parameters it asserts that the H-matrix product stays within a small
// multiple of ε of the dense product, and that the engineering quantity
// (equivalent resistance for unit GPR) moves by at most the error budget
// the core engine enforces.

// system is one assembled reference problem.
type system struct {
	asm   *bem.Assembler
	mesh  *grid.Mesh
	dense *linalg.SymMatrix
	rhs   []float64
}

func buildSystem(t *testing.T, g *grid.Grid, model soil.Model, maxElem float64) *system {
	t.Helper()
	m, err := grid.Discretize(g, grid.Linear, maxElem)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := bem.New(m, model, bem.Options{Workers: 2, Kernel: bem.FlatKernel})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := asm.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	return &system{asm: asm, mesh: m, dense: a, rhs: bem.RHS(m)}
}

// matvecRelErr returns max over a few random probes of ‖H·x − A·x‖/‖A·x‖.
func matvecRelErr(t *testing.T, h *HMatrix, a *linalg.SymMatrix, seed int64) float64 {
	t.Helper()
	n := a.Order()
	rng := rand.New(rand.NewSource(seed))
	hx := make([]float64, n)
	ax := make([]float64, n)
	worst := 0.0
	for probe := 0; probe < 3; probe++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		h.Apply(x, hx)
		a.MulVec(x, ax)
		var num, den float64
		for i := range hx {
			d := hx[i] - ax[i]
			num += d * d
			den += ax[i] * ax[i]
		}
		if den == 0 {
			t.Fatal("dense product vanished")
		}
		if e := math.Sqrt(num / den); e > worst {
			worst = e
		}
	}
	return worst
}

func reqDense(t *testing.T, s *system) float64 {
	t.Helper()
	res, err := linalg.SolveCG(s.dense, s.rhs, linalg.CGOptions{Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("dense CG: %v (converged=%v)", err, res.Converged)
	}
	i := bem.TotalCurrent(s.mesh, res.X)
	return 1 / i
}

func reqCompressed(t *testing.T, s *system, h *HMatrix) float64 {
	t.Helper()
	res, err := h.Solve(s.rhs, SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("compressed solve: %v", err)
	}
	i := bem.TotalCurrent(s.mesh, res.X)
	return 1 / i
}

// TestDifferentialMatrix sweeps (ε, η, leaf) over a set of randomized grids
// and soil models, asserting matvec and Req error budgets per cell.
func TestDifferentialMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type sys struct {
		name string
		s    *system
	}
	var systems []sys

	// Randomized rectangular grids under the three soil families (the
	// 3-layer model exercises the quadrature kernel fallback).
	for trial := 0; trial < 2; trial++ {
		w := 10 + rng.Float64()*20
		hgt := 10 + rng.Float64()*15
		nx := 3 + rng.Intn(3)
		ny := 3 + rng.Intn(3)
		depth := 0.4 + rng.Float64()*0.6
		g := grid.RectMesh(0, 0, w, hgt, nx, ny, depth, 0.01)
		systems = append(systems,
			sys{fmt.Sprintf("rect%d-uniform", trial), buildSystem(t, g, soil.NewUniform(0.01+rng.Float64()*0.05), 2.5)},
			sys{fmt.Sprintf("rect%d-twolayer", trial), buildSystem(t, g, soil.NewTwoLayer(0.02, 0.005, depth+1.5), 2.5)},
		)
	}
	three, err := soil.NewMultiLayer([]float64{0.02, 0.008, 0.03}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	systems = append(systems,
		sys{"tri-threelayer", buildSystem(t, grid.TriangleMesh(16, 12, 3, 3, 0.6, 0.01), three, 4)})

	cells := []struct {
		eps, eta float64
		leaf     int
	}{
		{1e-4, 2, 32},
		{1e-6, 2, 32},
		{1e-6, 1, 16},
		{1e-6, 3, 64},
		{1e-8, 2, 32},
	}

	for _, sy := range systems {
		reqRef := reqDense(t, sy.s)
		for _, cell := range cells {
			cell := cell
			t.Run(fmt.Sprintf("%s/eps=%g,eta=%g,leaf=%d", sy.name, cell.eps, cell.eta, cell.leaf), func(t *testing.T) {
				h, err := Build(context.Background(), sy.s.asm, Params{
					Eps: cell.eps, Eta: cell.eta, LeafSize: cell.leaf, Workers: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := matvecRelErr(t, h, sy.s.dense, 11); got > 50*cell.eps {
					t.Errorf("matvec relative error %.3g exceeds 50·ε = %.3g", got, 50*cell.eps)
				}
				req := reqCompressed(t, sy.s, h)
				if rel := math.Abs(req-reqRef) / reqRef; rel > 10*cell.eps {
					t.Errorf("Req moved by %.3g relative (dense %.8g, compressed %.8g), budget 10·ε = %.3g",
						rel, reqRef, req, 10*cell.eps)
				}
			})
		}
	}
}

// TestDegenerateCollinearRods puts every DoF on one line: the cluster tree
// must still split (single nonzero box extent) and the compressed product
// must stay within budget.
func TestDegenerateCollinearRods(t *testing.T) {
	g := &grid.Grid{}
	for i := 0; i < 40; i++ {
		g.AddRod(float64(i)*1.5, 0, 0.5, 2.0, 0.01)
	}
	s := buildSystem(t, g, soil.NewUniform(0.02), 1.0)
	h, err := Build(context.Background(), s.asm, Params{Eps: 1e-6, Eta: 2, LeafSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats().LowRank == 0 {
		t.Fatal("collinear geometry produced no admissible blocks; partition is degenerate")
	}
	if got := matvecRelErr(t, h, s.dense, 3); got > 50e-6 {
		t.Errorf("matvec relative error %.3g on collinear rods", got)
	}
	reqRef := reqDense(t, s)
	if req := reqCompressed(t, s, h); math.Abs(req-reqRef)/reqRef > 1e-5 {
		t.Errorf("Req %.8g vs dense %.8g", req, reqRef)
	}
}

// TestDegenerateSingleElementLeaves forces leaf size 1: every diagonal block
// is 1×1 and the near-field preconditioner degenerates to Jacobi-by-blocks.
func TestDegenerateSingleElementLeaves(t *testing.T) {
	g := grid.RectMesh(0, 0, 12, 12, 3, 3, 0.5, 0.01)
	s := buildSystem(t, g, soil.NewUniform(0.02), 3)
	h, err := Build(context.Background(), s.asm, Params{Eps: 1e-6, Eta: 2, LeafSize: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := matvecRelErr(t, h, s.dense, 5); got > 50e-6 {
		t.Errorf("matvec relative error %.3g with single-element leaves", got)
	}
	reqRef := reqDense(t, s)
	if req := reqCompressed(t, s, h); math.Abs(req-reqRef)/reqRef > 1e-5 {
		t.Errorf("Req %.8g vs dense %.8g", req, reqRef)
	}
}

// TestDegenerateAllNearField drives η toward zero so no block is admissible:
// the representation is all-dense and must reproduce the dense matrix to
// floating-point association (both evaluate the same pair classes; the only
// difference is summation order).
func TestDegenerateAllNearField(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 3, 3, 0.5, 0.01)
	s := buildSystem(t, g, soil.NewUniform(0.02), 3)
	h, err := Build(context.Background(), s.asm, Params{Eps: 1e-6, Eta: 1e-9, LeafSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.LowRank != 0 {
		t.Fatalf("η=1e-9 still yielded %d admissible blocks", st.LowRank)
	}
	if got := matvecRelErr(t, h, s.dense, 9); got > 1e-12 {
		t.Errorf("all-dense H-matrix differs from dense matrix by %.3g", got)
	}
}

// TestEntryGeneratorMatchesDense checks the generator directly on every
// (p, q): the inverted scatter must reproduce the dense assembly including
// the diagonal-doubling convention at shared nodes.
func TestEntryGeneratorMatchesDense(t *testing.T) {
	g := grid.RectMesh(0, 0, 8, 8, 2, 2, 0.5, 0.008)
	s := buildSystem(t, g, soil.NewTwoLayer(0.02, 0.01, 2), 2)
	adj := adjacency(s.mesh)
	f := newFiller(s.asm, adj, s.mesh.DoFCount(), s.asm.NewColumnScratch())
	n := s.mesh.NumDoF
	for p := 0; p < n; p++ {
		for q := 0; q <= p; q++ {
			want := s.dense.At(p, q)
			got := f.entry(p, q)
			if d := math.Abs(got - want); d > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("entry (%d,%d): generator %.17g, dense %.17g", p, q, got, want)
			}
		}
	}
}

// TestApplyDeterministicAcrossWorkers pins the bit-identity guarantee of the
// staged matvec: the same H built at different worker counts must produce
// bit-identical products.
func TestApplyDeterministicAcrossWorkers(t *testing.T) {
	g := grid.RectMesh(0, 0, 15, 15, 4, 4, 0.5, 0.01)
	s := buildSystem(t, g, soil.NewUniform(0.02), 2)
	n := s.mesh.NumDoF
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var ref []float64
	for _, workers := range []int{1, 2, 7} {
		h, err := Build(context.Background(), s.asm, Params{Eps: 1e-6, Workers: workers, LeafSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, n)
		h.Apply(x, y)
		if ref == nil {
			ref = append([]float64(nil), y...)
			continue
		}
		for i := range y {
			if y[i] != ref[i] {
				t.Fatalf("workers=%d: y[%d] = %x, want %x (bit mismatch)", workers, i, y[i], ref[i])
			}
		}
	}
}
