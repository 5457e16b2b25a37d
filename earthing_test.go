package earthing_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"earthing"
)

func TestFacadeEndToEnd(t *testing.T) {
	g := earthing.RectGrid(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	g.AddRod(10, 10, 0.8, 2, 0.007)
	model := earthing.TwoLayerSoil(0.005, 0.016, 1.0)
	res, err := earthing.Analyze(context.Background(), g, model, earthing.Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Req <= 0 || res.Current <= 0 {
		t.Fatalf("Req=%v I=%v", res.Req, res.Current)
	}
	if v := res.PotentialAt(earthing.V(10, 10, 0)); v <= 0 || v > 10_000 {
		t.Errorf("potential over grid center = %v", v)
	}

	r, err := earthing.SurfacePotential(context.Background(), res, earthing.SurfaceOptions{NX: 12, NY: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.V) != 144 {
		t.Error("raster size wrong")
	}
	lines := earthing.Contours(r, earthing.ContourLevels(r, 4))
	if len(lines) == 0 {
		t.Error("no contour lines")
	}
	v, err := earthing.ComputeVoltages(context.Background(), res, 2, earthing.SurfaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.MaxTouch <= 0 {
		t.Error("no touch voltage computed")
	}
	crit := earthing.SafetyCriteria{FaultDuration: 0.5, SoilRho: 200}
	verdict, err := crit.Check(v.MaxStep, v.MaxTouch, v.MaxMesh)
	if err != nil {
		t.Fatal(err)
	}
	_ = verdict.Safe() // either outcome is legitimate for this toy grid
}

// TestComputeVoltagesWideSite: the library voltage extraction puts no cap on
// its raster. A 600 m site at 1 m samples 605² points, past the 512² groundd
// allows one request, and is still analysed.
func TestComputeVoltagesWideSite(t *testing.T) {
	ctx := context.Background()
	g := earthing.RectGrid(0, 0, 600, 600, 2, 2, 0.8, 0.006)
	res, err := earthing.Analyze(ctx, g, earthing.UniformSoil(0.01), earthing.Config{GPR: 1000})
	if err != nil {
		t.Fatal(err)
	}
	v, err := earthing.ComputeVoltages(ctx, res, 1, earthing.SurfaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.MaxTouch <= 0 || v.MaxStep <= 0 || v.MaxTouch > 1000 {
		t.Errorf("implausible voltages %+v", v)
	}
}

func TestFacadeGridIO(t *testing.T) {
	g := earthing.Barbera()
	var sb strings.Builder
	if err := earthing.WriteGrid(&sb, g); err != nil {
		t.Fatal(err)
	}
	back, err := earthing.ReadGrid(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Conductors) != 408 {
		t.Errorf("round trip lost conductors: %d", len(back.Conductors))
	}
	m, err := earthing.Discretize(back, earthing.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDoF < 200 {
		t.Errorf("DoF = %d", m.NumDoF)
	}
}

func TestFacadeBuiltinsAndSoils(t *testing.T) {
	if earthing.Balaidos().NumRods() != 67 {
		t.Error("Balaidos rods wrong")
	}
	if earthing.TriangleGrid(10, 10, 3, 3, 0.8, 0.005).TotalLength() <= 0 {
		t.Error("TriangleGrid empty")
	}
	ml, err := earthing.MultiLayerSoil([]float64{0.01, 0.02, 0.05}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if ml.NumLayers() != 3 {
		t.Error("multilayer layers wrong")
	}
	if _, err := earthing.MultiLayerSoil([]float64{0.01}, []float64{1}); err == nil {
		t.Error("bad multilayer accepted")
	}
	s, err := earthing.ParseSchedule("guided,4")
	if err != nil || s.Kind != earthing.Guided || s.Chunk != 4 {
		t.Errorf("ParseSchedule = %v, %v", s, err)
	}
}

func TestFacadeSolverAndOptions(t *testing.T) {
	g := earthing.RectGrid(0, 0, 15, 15, 2, 2, 0.8, 0.006)
	model := earthing.UniformSoil(0.02)
	a, err := earthing.Analyze(context.Background(), g, model, earthing.Config{Solver: earthing.Cholesky})
	if err != nil {
		t.Fatal(err)
	}
	b, err := earthing.Analyze(context.Background(), g, model, earthing.Config{
		Solver: earthing.PCG,
		BEM: earthing.BEMOptions{
			Workers:  2,
			Loop:     earthing.InnerLoop,
			Assembly: earthing.MutexAssemble,
			Schedule: earthing.Schedule{Kind: earthing.Guided, Chunk: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Req-b.Req) > 1e-8*(1+a.Req) {
		t.Errorf("solver/parallel variants disagree: %v vs %v", a.Req, b.Req)
	}
}

// TestFacadeSweepAndOptions exercises the batch facade: functional options
// override Config fields, results come back in scenario order, GPR-only
// variants reuse the solve, and every result is bit-identical to a
// standalone Analyze with the same settings.
func TestFacadeSweepAndOptions(t *testing.T) {
	ctx := context.Background()
	g := earthing.RectGrid(0, 0, 15, 15, 2, 2, 0.8, 0.006)
	model := earthing.UniformSoil(0.02)

	want, err := earthing.Analyze(ctx, g, model, earthing.Config{},
		earthing.WithGPR(5_000), earthing.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if want.GPR != 5_000 {
		t.Fatalf("WithGPR not applied: GPR = %v", want.GPR)
	}

	swept, err := earthing.Sweep(ctx, g, []earthing.SweepScenario{
		{ID: "a", Soil: model, GPR: 5_000},
		{ID: "b", Soil: model, GPR: 10_000},
	}, earthing.Config{}, earthing.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 2 || swept[0].ID != "a" || swept[1].ID != "b" {
		t.Fatalf("unexpected sweep results: %+v", swept)
	}
	if swept[0].Reuse != earthing.SweepAssembled || swept[1].Reuse != earthing.SweepSolveReuse {
		t.Fatalf("reuse tiers (%q, %q), want (assembled, solve)", swept[0].Reuse, swept[1].Reuse)
	}
	if swept[0].Res.Req != want.Req || swept[0].Res.Current != want.Current {
		t.Errorf("sweep result not bit-identical to Analyze: (%v, %v) vs (%v, %v)",
			swept[0].Res.Req, swept[0].Res.Current, want.Req, want.Current)
	}
}

// ExampleAnalyze demonstrates the quickstart flow: build a grid, pick a soil
// model, analyze, and read the design parameters.
func ExampleAnalyze() {
	g := earthing.RectGrid(0, 0, 40, 40, 5, 5, 0.8, 0.006)
	model := earthing.UniformSoil(0.02) // 50 Ω·m soil
	res, err := earthing.Analyze(context.Background(), g, model, earthing.Config{GPR: 10_000})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Req is positive: %v\n", res.Req > 0)
	fmt.Printf("I = GPR/Req: %v\n", math.Abs(res.Current-10_000/res.Req) < 1e-6)
	// Output:
	// Req is positive: true
	// I = GPR/Req: true
}

// ExampleFitTwoLayerSoil shows the survey-to-model pipeline: synthesize a
// Wenner sounding over a known soil and recover its parameters.
func ExampleFitTwoLayerSoil() {
	truth := earthing.TwoLayerSoil(1.0/200, 1.0/50, 2.0)
	data := earthing.SimulateSurvey(truth, earthing.SurveySpacings(0.25, 60, 12), 0, nil)
	fit, err := earthing.FitTwoLayerSoil(data, earthing.SurveyInvertOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("rho1 ≈ 200: %v\n", math.Abs(fit.Rho1-200) < 4)
	fmt.Printf("rho2 ≈ 50: %v\n", math.Abs(fit.Rho2-50) < 1)
	fmt.Printf("h ≈ 2.0: %v\n", math.Abs(fit.H-2.0) < 0.1)
	// Output:
	// rho1 ≈ 200: true
	// rho2 ≈ 50: true
	// h ≈ 2.0: true
}

// ExampleOptimize searches lattice density, perimeter rods and burial depth
// for the cheapest layout that meets the IEEE Std 80 touch and step limits.
func ExampleOptimize() {
	spec := earthing.OptimizeSpec{
		Width: 10, Height: 10,
		Model:        earthing.UniformSoil(0.02),
		FaultCurrent: 100,
		Safety:       earthing.SafetyCriteria{FaultDuration: 0.5, SoilRho: 50},
		MinLines:     2, MaxLines: 4,
		MaxRods:  2,
		MinDepth: 0.5, MaxDepth: 0.7, DepthStep: 0.1,
		VoltageRes: 2.5,
	}
	opt := earthing.OptimizeOptions{Starts: 2, MaxEvals: 40}
	opt.Config.BEM.SeriesTol = 1e-2
	best, _, err := earthing.Optimize(context.Background(), spec, opt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("feasible: %v\n", best.Feasible && best.Verdict.Safe())
	fmt.Printf("GPR = Req × fault current: %v\n", math.Abs(best.GPR-best.Req*spec.FaultCurrent) < 1e-9*best.GPR)
	// Output:
	// feasible: true
	// GPR = Req × fault current: true
}

// ExamplePotentialProfile samples the surface potential along a walking
// line — the quantity behind step-voltage checks.
func ExamplePotentialProfile() {
	g := earthing.RectGrid(0, 0, 30, 30, 4, 4, 0.8, 0.006)
	res, err := earthing.Analyze(context.Background(), g, earthing.UniformSoil(0.02), earthing.Config{GPR: 10_000})
	if err != nil {
		panic(err)
	}
	s, v := earthing.PotentialProfile(res, 15, 15, 120, 15, 40)
	fmt.Printf("%d samples from %.0f to %.0f m\n", len(s), s[0], s[len(s)-1])
	fmt.Printf("potential decays away from the grid: %v\n", v[0] > v[len(v)-1])
	// Output:
	// 40 samples from 0 to 105 m
	// potential decays away from the grid: true
}
