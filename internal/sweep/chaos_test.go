package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"

	"earthing/internal/core"
	"earthing/internal/faultinject"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// chaosGrid is small so the chaos suites stay fast under -race.
func chaosGrid() *grid.Grid { return grid.RectMesh(0, 0, 10, 10, 2, 2, 0.6, 0.006) }

func chaosConfig() core.Config {
	cfg := testConfig(4)
	cfg.MaxElemLen = 4
	return cfg
}

// chaosModel is a two-layer model with γ₂ = gamma2 under γ₁ = 0.010 and an
// interface below every conductor of chaosGrid. Distinct γ₂ are distinct
// γ₂/γ₁ ratios, hence distinct unit models and distinct jobs (uniform models
// of different γ are proportional and share one job).
func chaosModel(gamma2 float64) soil.Model { return soil.NewTwoLayer(0.010, gamma2, 5) }

// chaosScenarios builds n scenarios with pairwise distinct models, so every
// scenario is its own assembly job.
func chaosScenarios(n int) []Scenario {
	scens := make([]Scenario, n)
	for i := range scens {
		scens[i] = Scenario{Soil: chaosModel(0.012 + 0.002*float64(i))}
	}
	return scens
}

// firstClassOf returns the 1-based AssemblyPair firing that evaluates the
// first pair class of plan job k — a deterministic fault target, because
// jobs run one at a time in plan order. Every job of a chaos sweep has its
// mesh, the same for all, wholly in the top layer, so all share the class
// count of a clean run.
func firstClassOf(t *testing.T, baseline []Result, k int) int64 {
	t.Helper()
	c := baseline[0].Res.Assembler().NumClasses()
	for i, r := range baseline {
		if r.Reuse == ReuseAssembled && r.Res.Assembler().NumClasses() != c {
			t.Fatalf("scenario %d: %d classes, scenario 0: %d; want one count per job", i, r.Res.Assembler().NumClasses(), c)
		}
	}
	if c == 0 {
		t.Fatal("clean run evaluated no pair classes")
	}
	return int64(k*c + 1)
}

// runChaosSweep runs the sweep and returns results indexed by scenario.
func runChaosSweep(t *testing.T, g *grid.Grid, scens []Scenario, opt Options) []Result {
	t.Helper()
	out, err := Run(context.Background(), g, scens, opt)
	if err != nil {
		t.Fatalf("sweep failed wholesale: %v", err)
	}
	return out
}

// assertIsolated checks the fault-isolation contract: exactly the scenarios
// in failed carry an Err, and every other scenario is bit-identical to its
// baseline counterpart.
func assertIsolated(t *testing.T, baseline, faulty []Result, failed map[int]bool) {
	t.Helper()
	for i, r := range faulty {
		if failed[i] {
			if r.Err == nil {
				t.Errorf("scenario %d: expected failure, got clean result", i)
			}
			if r.Res != nil {
				t.Errorf("scenario %d: failed result carries a non-nil Res", i)
			}
			if r.Reuse != ReuseFailed {
				t.Errorf("scenario %d: Reuse = %q, want %q", i, r.Reuse, ReuseFailed)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("scenario %d: unexpected Err %v", i, r.Err)
			continue
		}
		if r.Res.Req != baseline[i].Res.Req {
			t.Errorf("scenario %d: Req %v != baseline %v", i, r.Res.Req, baseline[i].Res.Req)
		}
		sameFloats(t, "sigma", r.Res.Sigma, baseline[i].Res.Sigma)
	}
}

// TestChaosSweepPanicIsolation: a panic injected into exactly one scenario's
// matrix generation fails that scenario alone — the other eight of nine
// complete and are bit-identical to a clean run.
func TestChaosSweepPanicIsolation(t *testing.T) {
	g := chaosGrid()
	opt := Options{Config: chaosConfig()}
	scens := chaosScenarios(9)
	const victim = 4

	baseline := runChaosSweep(t, g, scens, opt)
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("clean run: scenario %d failed: %v", i, r.Err)
		}
	}

	defer faultinject.Set(faultinject.AssemblyPair,
		faultinject.Counted(firstClassOf(t, baseline, victim), faultinject.Panic("injected sweep fault")))()

	faulty := runChaosSweep(t, g, scens, opt)
	assertIsolated(t, baseline, faulty, map[int]bool{victim: true})

	var pe *sched.PanicError
	if !errors.As(faulty[victim].Err, &pe) {
		t.Fatalf("victim Err = %v, want *sched.PanicError", faulty[victim].Err)
	}
	if pe.Value != "injected sweep fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "faultinject") {
		t.Errorf("captured stack does not reach the injection site:\n%s", pe.Stack)
	}
}

// TestChaosSweepNaNHealthIsolation: a NaN poisoned into one scenario's pair
// class is caught by the health checks at that scenario's solve — a typed
// *core.HealthError on its Result — while the rest of the batch is clean and
// bit-identical.
func TestChaosSweepNaNHealthIsolation(t *testing.T) {
	g := chaosGrid()
	cfg := chaosConfig()
	cfg.HealthCheck = true
	opt := Options{Config: cfg}
	scens := chaosScenarios(9)
	const victim = 6

	baseline := runChaosSweep(t, g, scens, opt)

	defer faultinject.Set(faultinject.AssemblyPair,
		faultinject.Counted(firstClassOf(t, baseline, victim), faultinject.PoisonNaN()))()

	faulty := runChaosSweep(t, g, scens, opt)
	assertIsolated(t, baseline, faulty, map[int]bool{victim: true})

	var he *core.HealthError
	if !errors.As(faulty[victim].Err, &he) {
		t.Fatalf("victim Err = %v, want *core.HealthError", faulty[victim].Err)
	}
	if he.Reason != core.HealthNonFiniteSystem {
		t.Errorf("Reason = %q, want %q", he.Reason, core.HealthNonFiniteSystem)
	}
}

// TestChaosSweepCholeskyPanelIsolation: a NaN poisoned into the first panel
// of the blocked factorization fails that scenario's solve with a typed
// ErrNotPositiveDefinite — the solver-stage counterpart of the
// pair-class chaos cases — while sibling jobs complete bit-identically.
func TestChaosSweepCholeskyPanelIsolation(t *testing.T) {
	g := chaosGrid()
	cfg := chaosConfig()
	// Jobs run in plan order: job 0 factorizes first and absorbs the Once
	// fault.
	cfg.Solver = core.Cholesky
	opt := Options{Config: cfg}
	scens := chaosScenarios(5)

	baseline := runChaosSweep(t, g, scens, opt)
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("clean run: scenario %d failed: %v", i, r.Err)
		}
	}

	defer faultinject.Set(faultinject.CholeskyPanel,
		faultinject.Once(faultinject.PoisonNaN()))()

	faulty := runChaosSweep(t, g, scens, opt)
	assertIsolated(t, baseline, faulty, map[int]bool{0: true})
	if !errors.Is(faulty[0].Err, linalg.ErrNotPositiveDefinite) {
		t.Fatalf("victim Err = %v, want linalg.ErrNotPositiveDefinite", faulty[0].Err)
	}
}

// TestChaosSweepSolvePanicIsolation: a panic in one job's solve stage (here
// the first panel of its blocked factorization) is contained to that job
// like a matrix-generation panic — scenario 0 fails with a
// *sched.PanicError while its siblings complete bit-identically, instead of
// the panic aborting the whole sweep.
func TestChaosSweepSolvePanicIsolation(t *testing.T) {
	g := chaosGrid()
	cfg := chaosConfig()
	// Jobs run in plan order: job 0 factorizes first and absorbs the Once
	// fault.
	cfg.Solver = core.Cholesky
	opt := Options{Config: cfg}
	scens := chaosScenarios(5)

	baseline := runChaosSweep(t, g, scens, opt)
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("clean run: scenario %d failed: %v", i, r.Err)
		}
	}

	defer faultinject.Set(faultinject.CholeskyPanel,
		faultinject.Once(faultinject.Panic("injected solve fault")))()

	faulty := runChaosSweep(t, g, scens, opt)
	assertIsolated(t, baseline, faulty, map[int]bool{0: true})
	var pe *sched.PanicError
	if !errors.As(faulty[0].Err, &pe) {
		t.Fatalf("victim Err = %v, want *sched.PanicError", faulty[0].Err)
	}
	if pe.Value != "injected solve fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
}

// TestChaosSweepSharedJobFailure: scenarios riding a failed job through the
// solve-reuse tier fail with it (they have no system of their own), while
// independent jobs are untouched.
func TestChaosSweepSharedJobFailure(t *testing.T) {
	g := chaosGrid()
	opt := Options{Config: chaosConfig()}
	scens := []Scenario{
		{Soil: chaosModel(0.012)},
		{Soil: chaosModel(0.020)}, // victim job
		{Soil: chaosModel(0.030)},
		{Soil: chaosModel(0.020), GPR: 25_000}, // solve-reuse on the victim job
	}

	baseline := runChaosSweep(t, g, scens, opt)

	// Plan order: job 0 serves scenario 0, job 1 scenarios 1 and 3.
	defer faultinject.Set(faultinject.AssemblyPair,
		faultinject.Counted(firstClassOf(t, baseline, 1), faultinject.Panic("shared job fault")))()

	faulty := runChaosSweep(t, g, scens, opt)
	assertIsolated(t, baseline, faulty, map[int]bool{1: true, 3: true})
	if faulty[1].Err != faulty[3].Err {
		t.Error("scenarios of one failed job should share the same Err")
	}
}
