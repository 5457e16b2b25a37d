package bem

import (
	"context"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// convergedTol is a series tolerance at which the exact ladder has
// converged to round-off: the far-field oracle and the exact side of every
// layered differential test run at it, because the far branch always sums
// its table to convergence.
const convergedTol = 1e-15

// farFixtureModels are the soils of the far-field oracle: two-layer soils at
// K = −0.78, −0.5, −0.2 and +0.5, and a three-layer soil whose top layer
// (where the fixture mesh lies) has an image expansion.
func farFixtureModels(t *testing.T) map[string]soil.Model {
	t.Helper()
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.008}, []float64{1.2, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-8
	return map[string]soil.Model{
		"K-0.78":      soil.NewTwoLayer(0.0025, 0.020, 1.0),
		"K-0.5":       soil.NewTwoLayer(0.005, 0.015, 1.0),
		"K-0.2":       soil.NewTwoLayer(0.01, 0.015, 1.0),
		"K+0.5":       soil.NewTwoLayer(0.015, 0.005, 1.0),
		"three-layer": ml,
	}
}

// farFixtureMesh is a 40 m lattice at 0.8 m with a ring at 0.5 m (two
// depths, so four depth pairs) and a rod in layer 1, split at 3 m.
func farFixtureMesh(t *testing.T, kind grid.ElementKind) *grid.Mesh {
	t.Helper()
	g := grid.RectMeshGraded(0, 0, 40, 30, 5, 4, 0.8, 0.006, 0.2)
	corners := [][2]float64{{-3, -3}, {43, -3}, {43, 33}, {-3, 33}, {-3, -3}}
	for i := 0; i < 4; i++ {
		a, b := corners[i], corners[i+1]
		g.AddConductor(geom.V(a[0], a[1], 0.5), geom.V(b[0], b[1], 0.5), 0.006)
	}
	g.AddRod(20, 15, 0.5, 0.4, 0.007)
	m, err := grid.Discretize(g, kind, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFarTableMatchesExactLadder is the far branch's oracle: every class the
// far-field gate accepts matches the exact ladder (ladderClassMatrix) at a
// converged series tolerance within 1e-10 of the class's largest entry, for
// two-layer soils across the contrast range and a three-layer soil, linear
// and constant elements; and Req of the production assembly is within 1e-10
// relative of an all-exact assembly.
func TestFarTableMatchesExactLadder(t *testing.T) {
	for name, model := range farFixtureModels(t) {
		for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
			m := farFixtureMesh(t, kind)
			a, err := New(m, model, Options{Workers: 2, SeriesTol: convergedTol})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := a.classify(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// The all-exact store: every class by the exact ladder.
			s := a.newScratch()
			ps := a.newPairStore(cl)
			far := make([]float64, a.k*a.k)
			nFar, worst := 0, 0.0
			for c := range cl.keys {
				key, exact := &cl.keys[c], ps.class(c)
				if key[kwHeader] == exactClass {
					a.pairMatrixExact(int(key[1]), int(key[2]), exact, s)
					continue
				}
				lo, hi, _ := a.ladder.pair(int(key[kwHeader]>>1&0xff), int(key[kwHeader]>>9&0xff))
				a.ladderClassMatrix(key, lo, hi, exact, s)
				if !a.farClass(key, lo, hi, far, s) {
					continue
				}
				nFar++
				scale, diff := 0.0, 0.0
				for i := range exact {
					scale = math.Max(scale, math.Abs(exact[i]))
					diff = math.Max(diff, math.Abs(far[i]-exact[i]))
				}
				worst = math.Max(worst, diff/scale)
			}
			if nFar < len(cl.keys)/2 {
				t.Errorf("%s/%v: %d of %d classes far, want most", name, kind, nFar, len(cl.keys))
			}
			if worst > 1e-10 {
				t.Errorf("%s/%v: far class differs from the exact ladder by %.3g of its largest entry (budget 1e-10)", name, kind, worst)
			}

			got, _, err := a.MatrixCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if a.NumFarClasses() != nFar {
				t.Errorf("%s/%v: NumFarClasses %d, gate accepts %d", name, kind, a.NumFarClasses(), nFar)
			}
			reqGot, reqWant := solveStoreReq(t, m, got), solveStoreReq(t, m, ps.assemble())
			rel := math.Abs(reqGot-reqWant) / reqWant
			if rel > 1e-10 {
				t.Errorf("%s/%v: Req far %v exact %v (rel Δ %.3g > 1e-10)", name, kind, reqGot, reqWant, rel)
			}
			t.Logf("%s/%v: %d/%d classes far, worst class Δ %.2g, Req rel Δ %.2g", name, kind, nFar, len(cl.keys), worst, rel)
		}
	}
}

// matrixHash is an FNV-1a hash of a matrix's packed lower triangle bits.
func matrixHash(r *linalg.SymMatrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < r.Order(); i++ {
		for j := 0; j <= i; j++ {
			v := math.Float64bits(r.At(i, j))
			for k := range b {
				b[k] = byte(v >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestFarTableUniformSoilUntouched: uniform soil has no reflected images, so
// no class takes the far branch and the matrix is bit
// for bit the one the exact ladder assembled before the branch existed
// (pinned hash).
func TestFarTableUniformSoilUntouched(t *testing.T) {
	m := farFixtureMesh(t, grid.Linear)
	a, err := New(m, soil.NewUniform(0.01), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := a.MatrixCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFarClasses() != 0 {
		t.Errorf("uniform soil: %d far classes, want none", a.NumFarClasses())
	}
	if got, want := matrixHash(r), uint64(0x103d547869add76); got != want {
		t.Errorf("uniform matrix hash %#x, pinned %#x", got, want)
	}
}

// TestFarTableClassShare: on the two-layer interconnected system of the
// H-matrix suites nearly every class is far, and the footprint counts the
// tables the assembly built.
func TestFarTableClassShare(t *testing.T) {
	m, err := grid.Discretize(grid.Interconnected(300, 2), grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, soil.NewTwoLayer(0.0025, 0.020, 1.0), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := a.Footprint()
	if _, _, err := a.MatrixCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if far, all := a.NumFarClasses(), a.NumClasses(); 10*far < 9*all {
		t.Errorf("%d of %d classes far, want ≥ 90 %%", far, all)
	}
	if a.Footprint() <= before {
		t.Errorf("Footprint %d after assembly, %d before: tables not counted", a.Footprint(), before)
	}
	t.Logf("%d of %d classes far; tables and panels %d B", a.NumFarClasses(), a.NumClasses(), a.far.footprint())
}

// benchmarkInterconnected times a fresh assembler's MatrixCtx at two
// workers on grid.Interconnected(600, 1), one element per conductor; each
// iteration builds its own far-field panels.
func benchmarkInterconnected(b *testing.B, model soil.Model) {
	m, err := grid.Discretize(grid.Interconnected(600, 1), grid.Linear, 0)
	if err != nil {
		b.Fatal(err)
	}
	geo, err := NewGeometry(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var a *Assembler
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a, err = NewWithGeometry(geo, model, Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := a.MatrixCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.NumFarClasses())/float64(a.NumClasses()), "far/class")
}

// BenchmarkMatrixCtxTwoLayer / BenchmarkMatrixCtxUniform: the far-field
// bar — two-layer soil (γ 0.0025/0.020, h = 1 m, K ≈ −0.78) against uniform
// soil on the same classes.
func BenchmarkMatrixCtxTwoLayer(b *testing.B) {
	benchmarkInterconnected(b, soil.NewTwoLayer(0.0025, 0.020, 1.0))
}

func BenchmarkMatrixCtxUniform(b *testing.B) {
	benchmarkInterconnected(b, soil.NewUniform(0.0025))
}

// TestFarTableConcurrentBuildBitIdentical: panels are built lazily by
// whichever worker first needs them and shared by all. Four goroutines
// evaluating every class of a fresh assembler at once, in different
// orders, race on every panel, and each class matrix they produce is
// bitwise the one a sequential evaluation produces.
func TestFarTableConcurrentBuildBitIdentical(t *testing.T) {
	m := farFixtureMesh(t, grid.Linear)
	model := soil.NewTwoLayer(0.0025, 0.020, 1.0)
	seq, err := New(m, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := seq.classify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	kk := seq.k * seq.k
	want := make([]float64, len(cl.keys)*kk)
	s := seq.newScratch()
	for c := range cl.keys {
		seq.evalClass(cl, c, 0, want[c*kk:(c+1)*kk], s)
	}

	par, err := New(m, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([][]float64, workers)
	done := make(chan int)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- w }()
			cs := par.NewColumnScratch()
			out := make([]float64, len(cl.keys)*kk)
			n := len(cl.keys)
			for i := range cl.keys {
				c := (i + w*n/workers) % n
				if w%2 == 1 {
					c = n - 1 - c
				}
				par.ClassMatrix(&cl.keys[c], out[c*kk:(c+1)*kk], cs)
			}
			got[w] = out
		}(w)
	}
	for range got {
		<-done
	}
	for w, out := range got {
		for i := range want {
			if cl.keys[i/kk][kwHeader] == exactClass {
				continue
			}
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("worker %d: class %d entry %d: %v, sequential %v", w, i/kk, i%kk, out[i], want[i])
			}
		}
	}
	if par.far.footprint() != seq.far.footprint() {
		t.Errorf("table bytes %d after the race, %d sequentially", par.far.footprint(), seq.far.footprint())
	}
}

// TestFarTableDepthCap: a mesh with more horizontal depths than
// farMaxDepths registers the most populated ones — the lattice's burial
// depth among them — so the tables stay bounded at farMaxDepths².
func TestFarTableDepthCap(t *testing.T) {
	g := grid.RectMesh(0, 0, 40, 40, 4, 4, 0.8, 0.006)
	for i := 0; i < farMaxDepths+8; i++ {
		z := 0.3 + 0.02*float64(i)
		g.AddConductor(geom.V(60+3*float64(i), 0, z), geom.V(60+3*float64(i), 2, z), 0.006)
	}
	m, err := grid.Discretize(g, grid.Linear, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, soil.NewTwoLayer(0.005, 0.016, 1.0), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.far.depths) != farMaxDepths || len(a.far.tabs) != farMaxDepths*farMaxDepths {
		t.Fatalf("%d depths, %d table slots registered; want %d, %d", len(a.far.depths), len(a.far.tabs), farMaxDepths, farMaxDepths*farMaxDepths)
	}
	lattice := farDepth{1, math.Float64bits(quantGeom(0.8))}
	if _, ok := slices.BinarySearchFunc(a.far.depths, lattice, cmpFarDepth); !ok {
		t.Errorf("the lattice's depth is not registered")
	}
	if _, _, err := a.MatrixCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.NumFarClasses() == 0 {
		t.Errorf("no far classes")
	}
}
