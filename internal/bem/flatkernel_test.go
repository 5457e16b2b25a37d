package bem

import (
	"context"
	"math"
	"reflect"
	"testing"

	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// flatFixtureModels returns the soil models the flat-kernel equivalence runs
// under: uniform, two-layer, and a three-layer model whose deep elements
// exercise the mixed image/quadrature dispatch.
func flatFixtureModels(t *testing.T) map[string]soil.Model {
	t.Helper()
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.01}, []float64{1.0, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-6
	return map[string]soil.Model{
		"uniform":    soil.NewUniform(0.01),
		"two-layer":  soil.NewTwoLayer(0.005, 0.016, 1.0),
		"multilayer": ml,
	}
}

func flatFixtureMesh(t *testing.T, model soil.Model, kind grid.ElementKind) *grid.Mesh {
	t.Helper()
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	g.AddRod(5, 5, 0.8, 2.5, 0.007)
	var depths []float64
	if model.NumLayers() > 1 {
		depths = []float64{1.0, 3.0}
	}
	m, err := grid.Discretize(g.SplitAtDepths(depths...), kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFlatKernelMatchesReference pins the flat assembly kernel to the
// closed-form referenceMatrix: every global matrix entry agrees to ≤ 1e-12
// relative and the equivalent resistance of the solved system to ≤ 1e-10
// relative (the acceptance bar), across soil models and element kinds.
func TestFlatKernelMatchesReference(t *testing.T) {
	for name, model := range flatFixtureModels(t) {
		for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
			m := flatFixtureMesh(t, model, kind)
			flat, err := New(m, model, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rRef := flat.referenceMatrix()
			rFlat, _, err := flat.MatrixCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n := rRef.Order()
			scale := rRef.MaxAbs()
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					d := math.Abs(rRef.At(i, j) - rFlat.At(i, j))
					if d > 1e-12*scale {
						t.Fatalf("%s/%v: entry (%d,%d): reference %v flat %v (Δ %g vs scale %g)",
							name, kind, i, j, rRef.At(i, j), rFlat.At(i, j), d, scale)
					}
				}
			}
			reqRef := solveStoreReq(t, m, rRef)
			reqFlat := solveStoreReq(t, m, rFlat)
			if rel := math.Abs(reqRef-reqFlat) / reqRef; rel > 1e-10 {
				t.Fatalf("%s/%v: Req reference %v flat %v (rel Δ %g > 1e-10)",
					name, kind, reqRef, reqFlat, rel)
			}
		}
	}
}

func solveStoreReq(t *testing.T, m *grid.Mesh, r *linalg.SymMatrix) float64 {
	t.Helper()
	ch, err := linalg.NewCholeskyBlocked(r, linalg.FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.Solve(RHS(m))
	if err != nil {
		t.Fatal(err)
	}
	return 1 / TotalCurrent(m, x)
}

// TestFlatKernelColumnsMatchMatrix pins the column API under the flat kernel:
// PairStore.ComputeColumn + Assemble must reproduce MatrixCtx bit for bit,
// the invariant the sweep engine's interleaved assembly relies on.
func TestFlatKernelColumnsMatchMatrix(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	m := flatFixtureMesh(t, model, grid.Linear)
	a, err := New(m, model, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := a.MatrixCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	store, err := a.NewPairStore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ar Arena
	for beta := 0; beta < a.NumColumns(); beta++ {
		store.ComputeColumn(beta, a.ColumnScratchFromArena(&ar))
	}
	got := store.Assemble()
	n := want.Order()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if want.At(i, j) != got.At(i, j) {
				t.Fatalf("entry (%d,%d): Matrix %v, column path %v", i, j, want.At(i, j), got.At(i, j))
			}
		}
	}
}

// TestFlatKernelColumnZeroAllocs proves the arena contract: once the plan and
// the arena scratch are warm, computing a column allocates nothing, for
// uniform and two-layer soils.
func TestFlatKernelColumnZeroAllocs(t *testing.T) {
	for _, name := range []string{"uniform", "two-layer"} {
		model := flatFixtureModels(t)[name]
		m := flatFixtureMesh(t, model, grid.Linear)
		a, err := New(m, model, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		store, err := a.NewPairStore(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var ar Arena
		cs := a.ColumnScratchFromArena(&ar)
		beta := a.NumColumns() - 1
		store.ComputeColumn(beta, cs) // warm the scratch
		allocs := testing.AllocsPerRun(10, func() {
			store.ComputeColumn(beta, a.ColumnScratchFromArena(&ar))
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations per warmed column", name, allocs)
		}
	}
}

// TestArenaReuseAcrossAssemblers pins the cross-job reuse the sweep workers
// depend on: assemblers with matching scratch dimensions share the cached
// scratch, and a dimension change rebuilds it without corrupting results.
func TestArenaReuseAcrossAssemblers(t *testing.T) {
	modelA := soil.NewUniform(0.01)
	modelB := soil.NewTwoLayer(0.005, 0.016, 1.0)
	mA := flatFixtureMesh(t, modelA, grid.Linear)
	mB := flatFixtureMesh(t, modelB, grid.Linear)
	aA, err := New(mA, modelA, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aB, err := New(mB, modelB, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ar Arena
	csA := aA.ColumnScratchFromArena(&ar)
	if aB.ColumnScratchFromArena(&ar) != csA {
		t.Fatal("same-dimension assemblers did not share the arena scratch")
	}
	// A constant-element mesh has k=1: dimensions change, scratch rebuilds.
	mC, err := grid.Discretize(grid.RectMesh(0, 0, 10, 10, 2, 2, 0.6, 0.006), grid.Constant, 0)
	if err != nil {
		t.Fatal(err)
	}
	aC, err := New(mC, modelA, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	csC := aC.ColumnScratchFromArena(&ar)
	if csC == csA {
		t.Fatal("dimension change did not rebuild the scratch")
	}
	// And the rebuilt scratch still computes correct columns.
	store, err := aC.NewPairStore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	store.ComputeColumn(0, csC)
	want, _, err := aC.MatrixCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for beta := 1; beta < aC.NumColumns(); beta++ {
		store.ComputeColumn(beta, aC.ColumnScratchFromArena(&ar))
	}
	got := store.Assemble()
	for i := 0; i < want.Order(); i++ {
		if want.At(i, i) != got.At(i, i) {
			t.Fatalf("arena-backed column %d diverged from Matrix", i)
		}
	}
}

func assemblyBenchAssembler(b *testing.B) *Assembler {
	b.Helper()
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	g := grid.RectMesh(0, 0, 30, 30, 4, 4, 0.8, 0.006)
	m, err := grid.Discretize(g.SplitAtDepths(1.0), grid.Linear, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(m, model, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkAssemblyReference / BenchmarkAssemblyFlat time the closed-form
// referenceMatrix oracle against the production pair-class assembly
// (single-thread).
func BenchmarkAssemblyReference(b *testing.B) {
	a := assemblyBenchAssembler(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.referenceMatrix()
	}
}

func BenchmarkAssemblyFlat(b *testing.B) {
	a := assemblyBenchAssembler(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.MatrixCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestImageLadderMatchesExpansion pins the shared ladder to the model's image
// expansions: every layer pair's series appears group by group, in
// ImageExpansion order within each group, in exact-size storage; pairs
// without an expansion are marked for the quadrature fallback.
func TestImageLadderMatchesExpansion(t *testing.T) {
	for name, model := range flatFixtureModels(t) {
		lad := newImageLadder(model, 40)
		if len(lad.imgs) != cap(lad.imgs) || len(lad.grpOff) != cap(lad.grpOff) {
			t.Errorf("%s: ladder storage not exact-size (imgs %d/%d, grpOff %d/%d)",
				name, len(lad.imgs), cap(lad.imgs), len(lad.grpOff), cap(lad.grpOff))
		}
		nl := model.NumLayers()
		for src := 1; src <= nl; src++ {
			for obs := 1; obs <= nl; obs++ {
				want, ok := model.ImageExpansion(src, obs, 40)
				lo, hi, got := lad.pair(src, obs)
				if ok != got {
					t.Fatalf("%s (%d,%d): ladder has expansion %v, model %v", name, src, obs, got, ok)
				}
				if !ok {
					continue
				}
				var flat []ladderImage
				for g := 0; g < int(hi-lo); g++ {
					for _, im := range want {
						if im.Group == g {
							flat = append(flat, ladderImage{im.Sign, im.Offset, im.Weight})
						}
					}
				}
				var ladder []ladderImage
				for g := lo; g < hi; g++ {
					ladder = append(ladder, lad.group(g)...)
				}
				if !reflect.DeepEqual(flat, ladder) || len(flat) != len(want) {
					t.Errorf("%s (%d,%d): ladder series differs from the expansion", name, src, obs)
				}
			}
		}
	}
}
