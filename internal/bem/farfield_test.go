package bem

import (
	"context"
	"hash/fnv"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/quad"
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
func farFixtureMesh(t testing.TB, kind grid.ElementKind) *grid.Mesh {
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

// farColdSolveMesh is shaped like the benchmark's cold-solve scenarios: a
// graded 6×6 lattice 56 × 72 m at 0.7 m with a 3 m rod at each corner,
// split at the 1.0 m interface of the two-layer fixture soils and
// discretized as groundd does, one element per conductor.
func farColdSolveMesh(t testing.TB, kind grid.ElementKind) *grid.Mesh {
	t.Helper()
	g := grid.RectMeshGraded(0, 0, 56, 72, 6, 6, 0.7, 0.006, 0.2)
	for _, c := range [][2]float64{{0, 0}, {56, 0}, {0, 72}, {56, 72}} {
		g.AddRod(c[0], c[1], 0.7, 3, 0.007)
	}
	m, err := grid.Discretize(g.SplitAtDepths(1.0), kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// farOracle compares every class of a that the far-field gate admits with
// the exact ladder (ladderClassMatrix) and returns the admitted count and
// the worst difference relative to the class's largest entry. admit, when
// set, restricts the comparison to the classes whose inner rule order it
// accepts. ps is the all-exact store: every class by the exact ladder.
func farOracle(t *testing.T, a *Assembler, cl *pairClasses, admit func(n int) bool) (ps *pairStore, nFar int, worst float64) {
	t.Helper()
	s := a.newScratch()
	ps = a.newPairStore(cl)
	far := make([]float64, a.k*a.k)
	for c := range cl.keys {
		key, exact := &cl.keys[c], ps.class(c)
		if key[kwHeader] == exactClass {
			a.pairMatrixExact(int(key[1]), int(key[2]), exact, s)
			continue
		}
		lo, hi, _ := a.ladder.pair(int(key[kwHeader]>>1&0xff), int(key[kwHeader]>>9&0xff))
		a.ladderClassMatrix(key, lo, hi, exact, s)
		if n := a.farClass(key, lo, hi, far, s); n == 0 || admit != nil && !admit(n) {
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
	return ps, nFar, worst
}

// TestFarTableMatchesExactLadder is the far branch's oracle: every class the
// far-field gate accepts matches the exact ladder (ladderClassMatrix) at a
// converged series tolerance within 1e-10 of the class's largest entry, for
// two-layer soils across the contrast range and a three-layer soil on a
// lattice with a ring at a second depth, and for the soils of the
// benchmark's cold-solve scenarios (K ≈ −0.5) and K = −0.78 on a lattice
// of that shape, linear and constant elements; and Req of the production
// assembly is within 1e-10 relative of an all-exact assembly.
func TestFarTableMatchesExactLadder(t *testing.T) {
	models := farFixtureModels(t)
	type fixture struct {
		mesh  string
		build func(testing.TB, grid.ElementKind) *grid.Mesh
		soil  string
	}
	var fixtures []fixture
	for name := range models {
		fixtures = append(fixtures, fixture{"lattice-ring", farFixtureMesh, name})
	}
	for _, name := range []string{"K-0.5", "K-0.78"} {
		fixtures = append(fixtures, fixture{"cold-solve", farColdSolveMesh, name})
	}
	for _, fx := range fixtures {
		for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
			name := fx.mesh + "/" + fx.soil
			m := fx.build(t, kind)
			a, err := New(m, models[fx.soil], Options{Workers: 2, SeriesTol: convergedTol})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := a.classify(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ps, nFar, worst := farOracle(t, a, cl, nil)
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

// TestFarTableGateBoundary holds the gate at its edges. Classes admitted at
// the cap order farInnerMax — the smallest Bernstein ellipses the gate
// accepts — match the exact ladder within 1e-10 of their largest entry, as
// do admitted crossings of bars at two depths, whose inner points must all
// read the table inside its range; a crossing that puts an outer point
// right above the source line (ρ² = 0 at the crossing) is refused even
// though its inner rule would converge.
func TestFarTableGateBoundary(t *testing.T) {
	model := soil.NewTwoLayer(0.0025, 0.020, 1.0)
	t.Run("cap-order", func(t *testing.T) {
		// A 4 m source bar and parallel and perpendicular bars at lateral
		// offsets of 0.55–0.85 lengths, at the source's depth and 0.3 m
		// above it: their mutual classes span the last inner orders.
		g := &grid.Grid{Name: "gate-boundary"}
		g.AddConductor(geom.V(0, 0, 0.8), geom.V(4, 0, 0.8), 0.006)
		for i := 0; i < 40; i++ {
			h := 4 * (0.55 + 0.0075*float64(i))
			z := []float64{0.8, 0.5}[i%2]
			g.AddConductor(geom.V(0.1*float64(i), h, z), geom.V(4+0.1*float64(i), h, z), 0.006)
			g.AddConductor(geom.V(6+h, -2, z), geom.V(6+h, 2, z), 0.006)
		}
		for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
			m, err := grid.Discretize(g, kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(m, model, Options{Workers: 1, SeriesTol: convergedTol})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := a.classify(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			_, nCap, worst := farOracle(t, a, cl, func(n int) bool { return n == farInnerMax })
			if nCap < 10 {
				t.Errorf("%v: %d classes at the cap order %d, want ≥ 10", kind, nCap, farInnerMax)
			}
			if worst > 1e-10 {
				t.Errorf("%v: cap-order class differs from the exact ladder by %.3g of its largest entry (budget 1e-10)", kind, worst)
			}
			t.Logf("%v: %d classes at the cap order, worst Δ %.2g", kind, nCap, worst)
		}
	})

	// crossing builds a 0.4 m bar along x at 0.5 m crossing a 0.4 m bar
	// along y at 0.8 m, offset by off along y, at outer order gauss, and
	// returns its assembler and the class of (test bar, source bar).
	crossing := func(t *testing.T, gauss int, off float64) (*Assembler, *PairKey) {
		t.Helper()
		g := &grid.Grid{Name: "crossing"}
		g.AddConductor(geom.V(-0.2, 0, 0.5), geom.V(0.2, 0, 0.5), 0.006)
		g.AddConductor(geom.V(0, -0.2+off, 0.8), geom.V(0, 0.2+off, 0.8), 0.006)
		m, err := grid.Discretize(g, grid.Linear, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(m, model, Options{Workers: 1, GaussOrder: gauss, NearGaussOrder: gauss, SeriesTol: convergedTol})
		if err != nil {
			t.Fatal(err)
		}
		key := new(PairKey)
		if _, ok := a.PairClass(1, 0, key); !ok {
			t.Fatal("crossing pair has no class")
		}
		return a, key
	}
	t.Run("crossing-refused", func(t *testing.T) {
		// Three-point outer rule: its middle node sits on the crossing,
		// right above the source line.
		a, key := crossing(t, 3, 0)
		lo, hi, _ := a.ladder.pair(int(key[kwHeader]>>1&0xff), int(key[kwHeader]>>9&0xff))
		if n := a.farClass(key, lo, hi, make([]float64, a.k*a.k), a.newScratch()); n != 0 {
			t.Fatalf("crossing with an outer point above the source line admitted at order %d", n)
		}
		// Its nearest singularity is 0.3 m off the 0.4 m source at every
		// outer point: the inner rule alone would converge.
		tab := a.farTable(int(key[kwHeader]>>1&0xff), int(key[kwHeader]>>9&0xff), key[kwSrcZ], key[kwObsZ])
		if h := math.Sqrt(tab.dz2min); (2*math.Hypot(0.2, h))/0.4 < farInnerA[farInnerMax] {
			t.Fatalf("fixture: singularity %.3g m off the source is inside the cap ellipse", h)
		}
	})
	t.Run("crossing-admitted", func(t *testing.T) {
		// Even outer orders straddle the crossing: admitted, and every inner
		// point reads the table inside its range.
		for _, c := range []struct {
			gauss int
			off   float64
		}{{4, 0}, {4, 0.05}, {6, -0.1}, {8, 0.01}} {
			a, key := crossing(t, c.gauss, c.off)
			lo, hi, _ := a.ladder.pair(int(key[kwHeader]>>1&0xff), int(key[kwHeader]>>9&0xff))
			s := a.newScratch()
			far, exact := make([]float64, a.k*a.k), make([]float64, a.k*a.k)
			n := a.farClass(key, lo, hi, far, s)
			if n == 0 {
				t.Errorf("gauss %d, offset %g: crossing refused", c.gauss, c.off)
				continue
			}
			f := func(w int) float64 { return math.Float64frombits(key[w]) }
			gpT := a.gpT
			if key[kwHeader]&1 != 0 {
				gpT = a.gpTN
			}
			for _, u := range gpT {
				x, y := f(kwObsX)+u*f(kwObsDX), f(kwObsY)+u*f(kwObsDY)
				for _, v := range farRules[n].t {
					ex, ey := x-v*f(kwSrcDX), y-v*f(kwSrcDY)
					if r2 := ex*ex + ey*ey; r2 < 0x1p-30 || r2 >= 0x1p40 {
						t.Errorf("gauss %d, offset %g: inner point at ρ² = %g, outside the table", c.gauss, c.off, r2)
					}
				}
			}
			a.ladderClassMatrix(key, lo, hi, exact, s)
			scale, diff := 0.0, 0.0
			for i := range exact {
				scale = math.Max(scale, math.Abs(exact[i]))
				diff = math.Max(diff, math.Abs(far[i]-exact[i]))
			}
			if diff > 1e-10*scale {
				t.Errorf("gauss %d, offset %g: crossing differs from the exact ladder by %.3g of its largest entry (budget 1e-10)", c.gauss, c.off, diff/scale)
			}
		}
	})
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
	if far, all := a.NumFarClasses(), a.NumClasses(); 100*far < 96*all {
		t.Errorf("%d of %d classes far, want ≥ 96 %%", far, all)
	}
	if a.Footprint() <= before {
		t.Errorf("Footprint %d after assembly, %d before: tables not counted", a.Footprint(), before)
	}
	t.Logf("%d of %d classes far; ladder, tables and panels %d B", a.NumFarClasses(), a.NumClasses(), a.lad.footprint())
}

// benchmarkMatrixCtx times a fresh assembler's MatrixCtx at two workers on
// m; each iteration builds its own far-field panels.
func benchmarkMatrixCtx(b *testing.B, m *grid.Mesh, model soil.Model) {
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

// interconnectedMesh is grid.Interconnected(600, 1), one element per
// conductor.
func interconnectedMesh(b *testing.B) *grid.Mesh {
	m, err := grid.Discretize(grid.Interconnected(600, 1), grid.Linear, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkMatrixCtxTwoLayer / BenchmarkMatrixCtxUniform: the far-field
// bar — two-layer soil (γ 0.0025/0.020, h = 1 m, K ≈ −0.78) against uniform
// soil on the same classes of grid.Interconnected(600, 1).
func BenchmarkMatrixCtxTwoLayer(b *testing.B) {
	benchmarkMatrixCtx(b, interconnectedMesh(b), soil.NewTwoLayer(0.0025, 0.020, 1.0))
}

func BenchmarkMatrixCtxUniform(b *testing.B) {
	benchmarkMatrixCtx(b, interconnectedMesh(b), soil.NewUniform(0.0025))
}

// BenchmarkMatrixCtxColdLattice: one cold-solve matrix — the lattice shape
// of the benchmark's cold-solve scenarios (farColdSolveMesh) in their soil
// (γ₂/γ₁ = 3, K = −0.5), where most classes are neither near nor 4 element
// lengths apart.
func BenchmarkMatrixCtxColdLattice(b *testing.B) {
	benchmarkMatrixCtx(b, farColdSolveMesh(b, grid.Linear), soil.NewTwoLayer(0.005, 0.015, 1.0))
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
	if par.lad.footprint() != seq.lad.footprint() {
		t.Errorf("ladder bytes %d after the race, %d sequentially", par.lad.footprint(), seq.lad.footprint())
	}
}

// node sums the ladder at one squared horizontal distance x, one node at a
// time: the oracle of nodes, which sums every node of a panel in one pass.
func (t *farTable) node(x float64) float64 {
	var acc quad.KahanSum
	small := 0
	for g := t.lo; g < t.hi; g++ {
		before := acc.Sum()
		for _, im := range t.l.img.group(g) {
			dz := t.zo - (im.sign*t.zs + im.off)
			acc.Add(im.w / math.Sqrt(x+dz*dz))
		}
		if math.Abs(acc.Sum()-before) <= farSeriesTol*math.Abs(acc.Sum()) {
			if small++; small >= 2 {
				break
			}
		} else {
			small = 0
		}
	}
	return acc.Sum()
}

// TestFarTableNodesMatchSingleNode: the one-pass node sums of every panel
// a cold-solve-shaped lattice builds — its matrix tables and the surface
// tables of a raster over it — are bitwise the sums of one node at a time,
// at K = −0.5 and −0.78.
func TestFarTableNodesMatchSingleNode(t *testing.T) {
	models := farFixtureModels(t)
	for _, name := range []string{"K-0.5", "K-0.78"} {
		m := farColdSolveMesh(t, grid.Linear)
		a, err := New(m, models[name], Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.MatrixCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		sigma := make([]float64, m.NumDoF)
		for i := range sigma {
			sigma[i] = 1
		}
		fe := a.Evaluator()
		for _, x := range surfaceRaster(m, 4) {
			fe.PotentialAt(x, sigma)
		}
		nodes, surface := 0, 0
		for _, slots := range [][]atomic.Pointer[farTable]{a.far.tabs, a.far.surf} {
			for i := range slots {
				tab := slots[i].Load()
				if tab == nil {
					continue
				}
				for p := range tab.panels {
					if tab.panels[p].Load() == nil {
						continue
					}
					idx := uint64(p + farIdxLo)
					xlo := math.Float64frombits(idx << farLocalBits)
					w := math.Float64frombits(idx>>farPanelBits<<52) * (1.0 / (1 << farPanelBits))
					var xs [farNodes]float64
					for j, u := range farCheb.nodes {
						xs[j] = xlo + (u+1)*0.5*w
					}
					for j, f := range tab.nodes(&xs) {
						if want := tab.node(xs[j]); math.Float64bits(f) != math.Float64bits(want) {
							t.Fatalf("%s: table (%d, %d) panel %d node %d: %v, single-node sum %v", name, tab.src, tab.obs, p, j, f, want)
						}
						nodes++
						if tab.zo == 0 {
							surface++
						}
					}
				}
			}
		}
		if surface == 0 || surface == nodes {
			t.Errorf("%s: %d nodes, %d of them on surface tables; want both kinds", name, nodes, surface)
		}
		t.Logf("%s: %d nodes bit-identical, %d on surface tables", name, nodes, surface)
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
