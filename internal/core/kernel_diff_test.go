package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// kernelDiffCase is one scenario of the production-vs-reference kernel
// differential test.
type kernelDiffCase struct {
	name  string
	grid  *grid.Grid
	mesh  *grid.Mesh // paper-exact discretization; grid is nil then
	model soil.Model
	rods  int // Config.RodElements
	// reqBits pins Float64bits of the production-kernel Req (0: not pinned).
	reqBits uint64
}

// crossingLattice is a 6×6 lattice whose corner and centre rods cross the
// 1.0 m interface of a two-layer soil, so every (src, obs) layer pair of the
// image ladder is exercised.
func crossingLattice() *grid.Grid {
	g := grid.RectMesh(0, 0, 30, 30, 6, 6, 0.8, 0.006)
	for _, p := range [][2]float64{{0, 0}, {30, 0}, {0, 30}, {30, 30}, {15, 15}} {
		g.AddRod(p[0], p[1], 0.8, 2.5, 0.007)
	}
	return g
}

func kernelDiffCases(t *testing.T) []kernelDiffCase {
	t.Helper()
	barbera, err := grid.BarberaMesh()
	if err != nil {
		t.Fatal(err)
	}
	return []kernelDiffCase{
		{name: "barbera-uniform", mesh: barbera, model: soil.NewUniform(0.016), reqBits: 0x3fd57bca1c6d6738},
		{name: "barbera-two-layer", mesh: barbera, model: soil.NewTwoLayer(0.005, 0.016, 1.0)},
		// Balaidos soil cases A–C of §5.2.
		{name: "balaidos-A", grid: grid.Balaidos(), model: soil.NewUniform(0.020), rods: 2},
		{name: "balaidos-B", grid: grid.Balaidos(), model: soil.NewTwoLayer(0.0025, 0.020, 0.7), rods: 2},
		{name: "balaidos-C", grid: grid.Balaidos(), model: soil.NewTwoLayer(0.0025, 0.020, 1.0), rods: 1, reqBits: 0x3fde5fd0811ed0db},
		{name: "lattice-crossing-rods", grid: crossingLattice(), model: soil.NewTwoLayer(0.004, 0.02, 1.0), reqBits: 0x3ff1e831de421097},
	}
}

func (c kernelDiffCase) analyze(t *testing.T, kernel bem.KernelStrategy) *Result {
	t.Helper()
	cfg := Config{GPR: 1, RodElements: c.rods, Solver: Cholesky, BEM: bem.Options{Kernel: kernel}}
	var res *Result
	var err error
	if c.mesh != nil {
		res, err = AnalyzeMesh(c.mesh, c.model, cfg)
	} else {
		res, err = Analyze(c.grid, c.model, cfg)
	}
	if err != nil {
		t.Fatalf("%s (%v kernel): %v", c.name, kernel, err)
	}
	return res
}

// TestProductionKernelMatchesReference is the differential test of the
// production (flat, zero-value) kernel against the explicit ReferenceKernel
// oracle. Budgets: |ΔReq|/Req ≤ 1e-10, and surface potentials and field
// gradients — production evaluated by the batched FieldEvaluator, reference
// by the per-point Potential/GradPotential — within 1e-10 of the largest
// reference magnitude. Three production Req values are pinned bit for bit,
// so refactors of the image tables cannot drift the arithmetic silently.
func TestProductionKernelMatchesReference(t *testing.T) {
	if k := (bem.Options{}).Kernel; k != bem.FlatKernel {
		t.Fatalf("zero-value kernel is %v, want the flat kernel", k)
	}
	const budget = 1e-10
	for _, c := range kernelDiffCases(t) {
		prod := c.analyze(t, bem.Options{}.Kernel)
		ref := c.analyze(t, bem.ReferenceKernel)
		if rel := math.Abs(prod.Req-ref.Req) / ref.Req; rel > budget {
			t.Errorf("%s: Req production %.17g reference %.17g (rel Δ %.3g > %g)", c.name, prod.Req, ref.Req, rel, budget)
		}
		if c.reqBits != 0 && math.Float64bits(prod.Req) != c.reqBits {
			t.Errorf("%s: production Req %.17g has bits %#x, pinned %#x", c.name, prod.Req, math.Float64bits(prod.Req), c.reqBits)
		}

		// Observation points: a surface profile across the grid's extent and
		// a few buried points (inside both layers of the two-layer soils).
		lo, hi := meshExtent(prod.Mesh)
		var pts []geom.Vec3
		for i := 0; i <= 8; i++ {
			f := float64(i) / 8
			x := lo.X - 5 + f*(hi.X-lo.X+10)
			y := lo.Y + 0.37*(hi.Y-lo.Y)
			pts = append(pts, geom.V(x, y, 0), geom.V(x, y+1.3, 0.4), geom.V(x, y-0.9, 2.2))
		}
		fe := prod.Assembler().Evaluator()
		refAsm := ref.Assembler()
		var vMax, gMax, vErr, gErr float64
		for _, x := range pts {
			vr := refAsm.Potential(x, ref.Sigma)
			gr := refAsm.GradPotential(x, ref.Sigma)
			vp := fe.PotentialAt(x, prod.Sigma)
			gp := fe.GradientAt(x, prod.Sigma)
			vMax = math.Max(vMax, math.Abs(vr))
			gMax = math.Max(gMax, gr.Norm())
			vErr = math.Max(vErr, math.Abs(vp-vr))
			gErr = math.Max(gErr, gp.Sub(gr).Norm())
		}
		if vErr > budget*vMax {
			t.Errorf("%s: potential differs by %.3g (budget %.3g)", c.name, vErr, budget*vMax)
		}
		if gErr > budget*gMax {
			t.Errorf("%s: gradient differs by %.3g (budget %.3g)", c.name, gErr, budget*gMax)
		}
	}
}

// meshExtent returns the bounding box of a mesh's element endpoints.
func meshExtent(m *grid.Mesh) (lo, hi geom.Vec3) {
	inf := math.Inf(1)
	lo, hi = geom.V(inf, inf, inf), geom.V(-inf, -inf, -inf)
	for _, el := range m.Elements {
		for _, p := range []geom.Vec3{el.Seg.A, el.Seg.B} {
			lo = geom.V(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z))
			hi = geom.V(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z))
		}
	}
	return lo, hi
}

// TestMixedRefinementBalaidos pins the mixed-precision refinement stop rule
// on real Galerkin systems: on the Balaidos soil cases A–C, under both
// kernels, the float32-updated factor refines to the residual floor (no
// ErrRefinementStalled from corrections already at float64 round-off) and
// matches the full-precision solve to 1e-12 relative.
func TestMixedRefinementBalaidos(t *testing.T) {
	for _, c := range kernelDiffCases(t) {
		if !strings.HasPrefix(c.name, "balaidos") {
			continue
		}
		mesh, _, err := BuildMesh(c.grid, c.model, Config{RodElements: c.rods})
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range []bem.KernelStrategy{bem.FlatKernel, bem.ReferenceKernel} {
			asm, err := bem.New(mesh, c.model, bem.Options{Kernel: kernel})
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := asm.Matrix()
			if err != nil {
				t.Fatal(err)
			}
			b := bem.RHS(mesh)
			full, err := linalg.NewCholesky(r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			mixed, err := linalg.NewCholeskyBlocked(r, linalg.FactorOpts{Workers: 1, Mixed: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := mixed.Solve(b)
			if err != nil {
				t.Fatalf("%s/%v: mixed solve: %v", c.name, kernel, err)
			}
			for i := range got {
				if d := math.Abs(got[i] - want[i]); d > 1e-12*math.Abs(want[i]) {
					t.Fatalf("%s/%v: x[%d] mixed %v full %v", c.name, kernel, i, got[i], want[i])
				}
			}
		}
	}
}

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
		res, err := Analyze(g, model, Config{GPR: 1, Solver: Cholesky, BEM: bem.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		res.Assembler().Evaluator().PotentialBatch(pts, res.Sigma, 1, out, bem.BatchOptions{Workers: 1})
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
