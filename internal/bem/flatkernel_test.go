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

// TestFlatKernelColumnZeroAllocs proves the scratch contract: once the
// plan and a NewColumnScratch are warm, evaluating a column's pair classes
// allocates nothing, for uniform and two-layer soils.
func TestFlatKernelColumnZeroAllocs(t *testing.T) {
	for _, name := range []string{"uniform", "two-layer"} {
		model := flatFixtureModels(t)[name]
		m := flatFixtureMesh(t, model, grid.Linear)
		a, err := New(m, model, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := a.classify(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		beta := len(m.Elements) - 1
		lo, hi := cl.columnClasses(beta)
		if hi == lo {
			t.Fatalf("%s: column %d owns no class", name, beta)
		}
		out := make([]float64, a.k*a.k)
		cs := a.NewColumnScratch()
		column := func() {
			for c := lo; c < hi; c++ {
				a.evalClass(cl, c, beta, out, cs.s)
			}
		}
		column() // warm the plan and the scratch
		if allocs := testing.AllocsPerRun(10, column); allocs != 0 {
			t.Fatalf("%s: %v allocations per warmed column", name, allocs)
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
