package earthing_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"earthing"
)

func TestSurveyFacade(t *testing.T) {
	truth := earthing.TwoLayerSoil(1.0/300, 1.0/60, 1.2)
	spacings := earthing.SurveySpacings(0.3, 40, 10)
	if len(spacings) != 10 {
		t.Fatal("spacings wrong")
	}
	data := earthing.SimulateSurvey(truth, spacings, 0, nil)
	fit, err := earthing.FitTwoLayerSoil(data, earthing.SurveyInvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Rho1-300)/300 > 0.05 || math.Abs(fit.H-1.2)/1.2 > 0.1 {
		t.Errorf("fit = %+v", fit)
	}
	rho, rms, err := earthing.FitUniformSoil(data)
	if err != nil {
		t.Fatal(err)
	}
	if rho <= 60 || rho >= 300 {
		t.Errorf("uniform rho = %v outside layer range", rho)
	}
	if rms < 0.05 {
		t.Error("layered data should misfit a uniform model")
	}
	// Forward model sanity through the facade.
	if got := earthing.ApparentResistivity(earthing.UniformSoil(0.01), 3); math.Abs(got-100) > 1e-6 {
		t.Errorf("ApparentResistivity = %v", got)
	}
}

func TestFieldFacade(t *testing.T) {
	g := earthing.RectGrid(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	res, err := earthing.Analyze(context.Background(), g, earthing.UniformSoil(0.02), earthing.Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	e := earthing.ElectricFieldAt(res, earthing.V(30, 10, 0))
	if e.X <= 0 {
		t.Errorf("E at +x side = %v", e)
	}
	j := earthing.CurrentDensityAt(res, earthing.V(30, 10, 0.5))
	// J = γ·E pointwise.
	e2 := earthing.ElectricFieldAt(res, earthing.V(30, 10, 0.5))
	if math.Abs(j.X-0.02*e2.X) > 1e-9*(1+math.Abs(j.X)) {
		t.Errorf("J = %v vs γE = %v", j.X, 0.02*e2.X)
	}

	rep := earthing.ComputeLeakage(res)
	if math.Abs(rep.Total-res.Current) > 1e-6*(1+res.Current) {
		t.Errorf("leakage total %v vs current %v", rep.Total, res.Current)
	}
	var csv, sum strings.Builder
	if err := earthing.WriteLeakageCSV(&csv, rep); err != nil {
		t.Fatal(err)
	}
	if err := earthing.WriteLeakageSummary(&sum, rep, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "top 3") {
		t.Error("summary malformed")
	}

	s, step := earthing.StepVoltageProfile(res, 10, 10, 60, 10, 20)
	if len(s) != 20 || step[0] < 0 {
		t.Error("step profile malformed")
	}
}

func TestOptimizeFacade(t *testing.T) {
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
	opt := earthing.OptimizeOptions{Starts: 2, MaxEvals: 80}
	opt.Config.BEM.SeriesTol = 1e-2

	var updates int
	best, stats, err := earthing.OptimizeStream(context.Background(), spec, opt,
		func(p earthing.OptimizeProgress) error { updates++; return nil },
		earthing.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || !best.Feasible || !best.Verdict.Safe() {
		t.Fatalf("best = %+v", best)
	}
	if updates == 0 || stats.Evaluated == 0 {
		t.Errorf("updates %d, stats %+v", updates, stats)
	}

	// An impossible fault current surfaces the sentinel error with the
	// least-violating design attached.
	spec.FaultCurrent = 1e6
	worst, _, err := earthing.Optimize(context.Background(), spec, opt)
	if err != earthing.ErrNoFeasibleOptimize {
		t.Errorf("err = %v, want ErrNoFeasibleOptimize", err)
	}
	if worst == nil || worst.Feasible {
		t.Errorf("worst = %+v, want infeasible design", worst)
	}
}
