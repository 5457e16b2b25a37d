package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

func TestAnalyzeSmallGridUniform(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	res, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.016), Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Req <= 0 || math.IsNaN(res.Req) {
		t.Fatalf("Req = %v", res.Req)
	}
	if relDiff(res.Current, 10_000/res.Req) > 1e-12 {
		t.Errorf("I = %v, want GPR/Req = %v", res.Current, 10_000/res.Req)
	}
	// A 20×20 m grid in 62.5 Ω·m soil lands in the ~1–3 Ω range.
	if res.Req < 0.5 || res.Req > 5 {
		t.Errorf("Req = %v ohm out of physical range", res.Req)
	}
	if !res.CG.Converged {
		t.Error("PCG did not converge")
	}
	if res.Timings.MatrixGen <= 0 || res.Timings.Solve <= 0 {
		t.Errorf("stage timings not recorded: %+v", res.Timings)
	}
}

func TestGPRScalesLinearly(t *testing.T) {
	g := grid.RectMesh(0, 0, 15, 15, 2, 2, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	r1, err := AnalyzeCtx(context.Background(), g, model, Config{GPR: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AnalyzeCtx(context.Background(), g, model, Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(r1.Req, r2.Req) > 1e-12 {
		t.Error("Req must not depend on GPR")
	}
	if relDiff(r2.Current, 10_000*r1.Current) > 1e-9 {
		t.Errorf("current did not scale: %v vs %v", r2.Current, 10_000*r1.Current)
	}
	p1 := r1.PotentialAt(geom.V(30, 7, 0))
	p2 := r2.PotentialAt(geom.V(30, 7, 0))
	if relDiff(p2, 10_000*p1) > 1e-9 {
		t.Errorf("potential did not scale: %v vs %v", p2, 10_000*p1)
	}
	// PotentialAt is the field evaluator scaled by the GPR, bit for bit, on
	// the surface and below the interface (the evaluator's 1e-10 budget
	// against the closed-form oracle is internal/bem's
	// TestProductionKernelMatchesReference).
	for _, x := range []geom.Vec3{geom.V(30, 7, 0), geom.V(7, 7, 0), geom.V(7, 7, 2)} {
		got := r2.PotentialAt(x)
		if want := r2.GPR * r2.Assembler().Evaluator().PotentialAt(x, r2.Sigma); got != want {
			t.Errorf("PotentialAt(%v) = %v, evaluator %v", x, got, want)
		}
	}
}

func TestSolversAgree(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	pcg, err := AnalyzeCtx(context.Background(), g, model, Config{Solver: PCG})
	if err != nil {
		t.Fatal(err)
	}
	chol, err := AnalyzeCtx(context.Background(), g, model, Config{Solver: Cholesky})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(pcg.Req, chol.Req) > 1e-8 {
		t.Errorf("PCG Req %v vs Cholesky Req %v", pcg.Req, chol.Req)
	}
}

func TestAnalyzeSplitsAtInterfaces(t *testing.T) {
	// A rod crossing the two-layer interface must be handled transparently.
	g := grid.SingleRod(0, 0, 0.5, 2.0, 0.007)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	res, err := AnalyzeCtx(context.Background(), g, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mesh.Elements) < 2 {
		t.Errorf("expected interface split, got %d elements", len(res.Mesh.Elements))
	}
	if res.Req <= 0 {
		t.Errorf("Req = %v", res.Req)
	}
}

// TestInterfaceDepthsProbe: the interface depths are the model's own, bit
// for bit, also where a depth is no dyadic fraction (0.7, 3.0 = 0.7 + 2.3).
func TestInterfaceDepthsProbe(t *testing.T) {
	tl := soil.NewTwoLayer(0.005, 0.016, 1.25)
	if d := InterfaceDepths(tl); len(d) != 1 || d[0] != 1.25 {
		t.Errorf("two-layer interfaces = %v", d)
	}
	ml, err := soil.NewMultiLayer([]float64{1, 2, 3}, []float64{0.7, 2.3})
	if err != nil {
		t.Fatal(err)
	}
	if d := InterfaceDepths(ml); len(d) != 2 || d[0] != 0.7 || d[1] != 0.7+2.3 {
		t.Errorf("three-layer interfaces = %v", d)
	}
	if got := InterfaceDepths(soil.NewUniform(1)); got != nil {
		t.Errorf("uniform interfaces = %v", got)
	}
}

func TestRodElementsOption(t *testing.T) {
	g := grid.Balaidos()
	model := soil.NewUniform(0.02)
	res, err := AnalyzeCtx(context.Background(), g, model, Config{RodElements: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mesh.Elements) != 241 { // 107 + 2·67, paper's Balaidos count
		t.Errorf("elements = %d, want 241", len(res.Mesh.Elements))
	}
}

func TestAnalyzeReader(t *testing.T) {
	in := `name tiny
conductor 0 0 0.8 10 0 0.8 0.006
conductor 0 0 0.8 0 10 0.8 0.006
rod 0 0 0.8 1.5 0.007
`
	res, err := AnalyzeReaderCtx(context.Background(), strings.NewReader(in), soil.NewUniform(0.02), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Req <= 0 {
		t.Errorf("Req = %v", res.Req)
	}
	if _, err := AnalyzeReaderCtx(context.Background(), strings.NewReader("garbage"), soil.NewUniform(0.02), Config{}); err == nil {
		t.Error("bad input accepted")
	}
}

func TestAnalyzeMeshPaperDiscretizations(t *testing.T) {
	m, err := grid.BalaidosMesh()
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeMeshCtx(context.Background(), m, soil.NewUniform(0.020), Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 5.1 model A: Req = 0.3366 Ω, I = 29.71 kA. The interior
	// layout is synthesized, so accept the engineering ballpark.
	if res.Req < 0.15 || res.Req > 0.7 {
		t.Errorf("Balaidos model A Req = %v ohm, paper 0.3366", res.Req)
	}
}

func TestBoundaryConditionOnElectrode(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.2)
	res, err := AnalyzeCtx(context.Background(), g, model, Config{GPR: 10_000, MaxElemLen: 2,
		BEM: bem.Options{GaussOrder: 6, SeriesTol: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	el := res.Mesh.Elements[3]
	// Potential on the conductor surface should recover the GPR.
	p := el.Seg.Midpoint().Add(geom.V(0, 0, -el.Radius))
	v := res.PotentialAt(p)
	if math.Abs(v-10_000)/10_000 > 0.05 {
		t.Errorf("V on electrode = %v, want 10000", v)
	}
}

func TestWriteReport(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	res, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"equivalent resistance", "uniform soil", "degrees of freedom"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPredictedSpeedup(t *testing.T) {
	g := grid.RectMesh(0, 0, 30, 30, 5, 5, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	res, err := AnalyzeCtx(context.Background(), g, model, Config{BEM: bem.Options{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.PredictedSpeedup()
	if s < 1 || s > 4.2 {
		t.Errorf("predicted speedup = %v with 4 workers", s)
	}
	// Sequential run predicts 1.
	seq, err := AnalyzeCtx(context.Background(), g, model, Config{BEM: bem.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sp := seq.PredictedSpeedup(); sp != 1 {
		t.Errorf("sequential predicted speedup = %v", sp)
	}
}

func TestInvalidConfigs(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	if _, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), Config{GPR: -5}); err == nil {
		t.Error("negative GPR accepted")
	}
	if _, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), Config{Solver: SolverKind(99)}); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := AnalyzeCtx(context.Background(), &grid.Grid{}, soil.NewUniform(0.02), Config{}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), Config{BEM: bem.Options{Kernel: bem.KernelStrategy(7)}}); !errors.Is(err, bem.ErrUnknownKernel) {
		t.Errorf("unknown kernel: err = %v, want bem.ErrUnknownKernel", err)
	}
}

// TestNonFiniteGPRRejected: AnalyzeCtx and Rehydrate reject a GPR that is
// NaN or ±Inf, as Result.WithModel and the sweep do, instead of reporting an
// infinite current.
func TestNonFiniteGPRRejected(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	model := soil.NewUniform(0.02)
	res, err := AnalyzeCtx(context.Background(), g, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, gpr := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if r, err := AnalyzeCtx(context.Background(), g, model, Config{GPR: gpr}); err == nil {
			t.Errorf("AnalyzeCtx: GPR %g accepted (current %g)", gpr, r.Current)
		}
		if r, err := Rehydrate(g, model, res.Sigma, Config{GPR: gpr}); err == nil {
			t.Errorf("Rehydrate: GPR %g accepted (current %g)", gpr, r.Current)
		}
	}
}

func TestBondingWarning(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	g.AddRod(30, 30, 0.8, 2, 0.007) // floating, far from the grid
	res, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "disconnected") {
		t.Errorf("warnings = %v", res.Warnings)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "WARNING") {
		t.Error("report does not surface the warning")
	}
	// A bonded grid carries no warnings.
	clean, err := AnalyzeCtx(context.Background(), grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006), soil.NewUniform(0.02), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", clean.Warnings)
	}
}

func TestSolverKindString(t *testing.T) {
	// Three distinct kinds: the map literal would not compile otherwise.
	want := map[SolverKind]string{PCG: "pcg", Cholesky: "cholesky", SolverHMatrix: "hmatrix"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if CholeskyBlocked != Cholesky {
		t.Error("the deprecated CholeskyBlocked must alias Cholesky")
	}
}
