package bem_test

import (
	"context"
	"math"
	"testing"

	"earthing"
	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// The differential suite of the production pipeline against the closed-form
// oracles of the package tests (bem.ReferenceMatrix, ReferencePotential,
// ReferenceGradient): the flat pair-class assembly, the blocked
// factorization and the batched field evaluator, on the paper's grids.

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
		{name: "barbera-uniform", mesh: barbera, model: soil.NewUniform(0.016), reqBits: 0x3fd57bca1c6d6735},
		{name: "barbera-two-layer", mesh: barbera, model: soil.NewTwoLayer(0.005, 0.016, 1.0)},
		// Balaidos soil cases A–C of §5.2.
		{name: "balaidos-A", grid: grid.Balaidos(), model: soil.NewUniform(0.020), rods: 2},
		{name: "balaidos-B", grid: grid.Balaidos(), model: soil.NewTwoLayer(0.0025, 0.020, 0.7), rods: 2},
		{name: "balaidos-C", grid: grid.Balaidos(), model: soil.NewTwoLayer(0.0025, 0.020, 1.0), rods: 1, reqBits: 0x3fde5fd0815648f8},
		{name: "lattice-crossing-rods", grid: crossingLattice(), model: soil.NewTwoLayer(0.004, 0.02, 1.0), reqBits: 0x3ff1e831df5a4e92},
	}
}

// options are the case's BEM options. The far-field branch sums its table
// to convergence, so both sides of a layered comparison run the series to
// convergence.
func (c kernelDiffCase) options() bem.Options {
	if c.model.NumLayers() > 1 {
		return bem.Options{SeriesTol: bem.ConvergedTol}
	}
	return bem.Options{}
}

// analyze runs the production pipeline on the case.
func (c kernelDiffCase) analyze(t *testing.T) *core.Result {
	t.Helper()
	cfg := core.Config{GPR: 1, RodElements: c.rods, Solver: core.Cholesky, BEM: c.options()}
	var res *core.Result
	var err error
	if c.mesh != nil {
		res, err = core.AnalyzeMeshCtx(context.Background(), c.mesh, c.model, cfg)
	} else {
		res, err = core.AnalyzeCtx(context.Background(), c.grid, c.model, cfg)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res
}

// solveUnit factors r with the production blocked factorization and returns
// the unit-GPR density and grid resistance of mesh m.
func solveUnit(t *testing.T, m *grid.Mesh, r *linalg.SymMatrix) (sigma []float64, req float64) {
	t.Helper()
	ch, err := linalg.NewCholeskyBlocked(r, linalg.FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sigma, err = ch.Solve(bem.RHS(m))
	if err != nil {
		t.Fatal(err)
	}
	return sigma, 1 / bem.TotalCurrent(m, sigma)
}

// TestProductionKernelMatchesReference is the differential test of the
// production pipeline (flat pair-class assembly, blocked factor, batched
// FieldEvaluator) against the closed-form oracles on the same assembler.
// Budgets: |ΔReq|/Req ≤ 1e-10, and surface and buried potentials and field
// gradients within 1e-10 of the largest reference magnitude. Layered cases
// run at a converged series tolerance (the production side's far classes
// read a converged table; see analyze). Three production Req values are
// pinned bit for bit, so refactors of the image tables cannot drift the
// arithmetic silently. The oracle assembles the physical model while the
// pipeline solves the unit model (γ₁ = 1) and applies γ₁ afterwards, so the
// budgets also bound the normalization.
func TestProductionKernelMatchesReference(t *testing.T) {
	const budget = 1e-10
	for _, c := range kernelDiffCases(t) {
		prod := c.analyze(t)
		if c.reqBits != 0 && math.Float64bits(prod.Req) != c.reqBits {
			t.Errorf("%s: production Req %.17g has bits %#x, pinned %#x", c.name, prod.Req, math.Float64bits(prod.Req), c.reqBits)
		}
		ref, err := bem.New(prod.Mesh, c.model, c.options())
		if err != nil {
			t.Fatal(err)
		}
		refSigma, refReq := solveUnit(t, prod.Mesh, bem.ReferenceMatrix(ref))
		if rel := math.Abs(prod.Req-refReq) / refReq; rel > budget {
			t.Errorf("%s: Req production %.17g reference %.17g (rel Δ %.3g > %g)", c.name, prod.Req, refReq, rel, budget)
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
		var vMax, gMax, vErr, gErr float64
		for _, x := range pts {
			vr := bem.ReferencePotential(ref, x, refSigma)
			gr := bem.ReferenceGradient(ref, x, refSigma)
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

// fig54Raster solves Balaidos under soil model B at series tolerance tol and
// returns the Figure 5.4 surface raster: nx×ny points over the grid bounds
// plus the figure's 20 m margin.
func fig54Raster(t *testing.T, nx, ny int, tol float64) (*core.Result, []geom.Vec3) {
	t.Helper()
	res, err := core.AnalyzeCtx(context.Background(), grid.Balaidos(), soil.NewTwoLayer(0.0025, 0.020, 0.7), core.Config{
		GPR: 1, RodElements: 2, BEM: bem.Options{SeriesTol: tol},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, bem.Fig54Points(res.Mesh, nx, ny)
}

// TestFig54RasterMatchesReference: on the whole 56×44 Figure 5.4 raster
// (Balaidos, soil B) the batched evaluator reproduces the closed-form
// potential within max|ΔV| ≤ 1e-10 per unit GPR. Both run at a converged
// series tolerance: the evaluator's surface tables are always summed to
// convergence.
func TestFig54RasterMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates a 2464-point raster through the reference oracle")
	}
	res, pts := fig54Raster(t, 56, 44, bem.ConvergedTol)
	asm := res.Assembler()
	batch := make([]float64, len(pts))
	if _, err := asm.Evaluator().PotentialBatchCtx(context.Background(), pts, res.Sigma, 1, batch, bem.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i, x := range pts {
		maxDiff = math.Max(maxDiff, math.Abs(batch[i]-bem.ReferencePotential(asm, x, res.Sigma)))
	}
	if maxDiff > 1e-10 {
		t.Errorf("batch vs reference max |ΔV| = %g, want ≤ 1e-10", maxDiff)
	}
}

// TestFacadeFieldMatchesReference: the facade's ElectricFieldAt and
// CurrentDensityAt (the batched evaluator) match −GPR·∇V and −γ·GPR·∇V of
// the closed-form gradient within 1e-10 of the largest reference magnitude,
// on the surface and in both layers.
func TestFacadeFieldMatchesReference(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	res, err := earthing.Analyze(context.Background(), grid.RectMesh(0, 0, 30, 20, 4, 3, 0.8, 0.006), model,
		earthing.Config{GPR: 1000})
	if err != nil {
		t.Fatal(err)
	}
	asm := res.Assembler()
	var eMax, jMax, eErr, jErr float64
	for _, x := range []geom.Vec3{
		geom.V(30, 10, 0), geom.V(12, 7, 0), geom.V(-4, 25, 0),
		geom.V(30, 10, 0.5), geom.V(5, 5, 0.81), geom.V(18, 3, 2.5),
	} {
		g := bem.ReferenceGradient(asm, x, res.Sigma)
		wantE := g.Scale(-res.GPR)
		wantJ := wantE.Scale(model.Conductivity(model.LayerOf(x.Z)))
		eMax = math.Max(eMax, wantE.Norm())
		jMax = math.Max(jMax, wantJ.Norm())
		eErr = math.Max(eErr, earthing.ElectricFieldAt(res, x).Sub(wantE).Norm())
		jErr = math.Max(jErr, earthing.CurrentDensityAt(res, x).Sub(wantJ).Norm())
	}
	if eErr > 1e-10*eMax {
		t.Errorf("ElectricFieldAt differs from the reference by %.3g (budget %.3g)", eErr, 1e-10*eMax)
	}
	if jErr > 1e-10*jMax {
		t.Errorf("CurrentDensityAt differs from the reference by %.3g (budget %.3g)", jErr, 1e-10*jMax)
	}
}
