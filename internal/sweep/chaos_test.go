package sweep

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"earthing/internal/core"
	"earthing/internal/faultinject"
	"earthing/internal/grid"
	"earthing/internal/hmatrix"
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

// chaosScenarios builds n scenarios with pairwise distinct uniform models, so
// every scenario is its own assembly job.
func chaosScenarios(n int) []Scenario {
	scens := make([]Scenario, n)
	for i := range scens {
		scens[i] = Scenario{Model: soil.NewUniform(0.010 + 0.002*float64(i))}
	}
	return scens
}

// firstColumnOf returns the global interleaved column index of the first
// column of the job serving scenario scen — a deterministic fault target.
func firstColumnOf(t *testing.T, g *grid.Grid, scens []Scenario, opt Options, scen int) int {
	t.Helper()
	p, err := buildPlan(g, scens, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ji, j := range p.jobs {
		for _, si := range j.scens {
			if si == scen {
				return p.offsets[ji]
			}
		}
	}
	t.Fatalf("scenario %d not found in any job", scen)
	return -1
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
// assembly columns fails that scenario alone — the other eight of nine
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

	target := firstColumnOf(t, g, scens, opt, victim)
	defer faultinject.Set(faultinject.SweepColumn,
		faultinject.At(target, faultinject.Panic("injected sweep fault")))()

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

// TestChaosSweepNaNHealthIsolation: a NaN poisoned into one scenario's store
// is caught by the health checks at that scenario's solve — a typed
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

	target := firstColumnOf(t, g, scens, opt, victim)
	defer faultinject.Set(faultinject.SweepColumn,
		faultinject.At(target, faultinject.PoisonNaN()))()

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
// assembly-column chaos cases — while sibling jobs complete bit-identically.
func TestChaosSweepCholeskyPanelIsolation(t *testing.T) {
	g := chaosGrid()
	cfg := chaosConfig()
	// One worker makes job completion (and thus factorization) order
	// deterministic: job 0 finalizes first and absorbs the Once fault.
	cfg.BEM.Workers = 1
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

// hmatrixChaosConfig selects the compressed solver with its dense fallback
// disabled (the chaos contract is a typed per-scenario failure, not silent
// degradation) at one worker, so job completion order is deterministic and a
// Once fault always lands on scenario 0's job.
func hmatrixChaosConfig() core.Config {
	cfg := testConfig(1)
	cfg.MaxElemLen = 3
	cfg.Solver = core.SolverHMatrix
	cfg.HMatrix = core.HMatrixConfig{LeafSize: 4, DenseFallbackN: -1}
	return cfg
}

// hmatrixChaosGrid is large enough that the cluster tree at leaf size 4
// yields admissible (ACA-compressed) blocks, so the injection sites fire.
func hmatrixChaosGrid() *grid.Grid { return grid.RectMesh(0, 0, 24, 24, 4, 4, 0.6, 0.006) }

// checkNoGoroutineLeak asserts the sweep left no workers behind (the
// compressed solve path spawns its own inner loops; a failed job must not
// strand them).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines grew from %d to %d after the chaos sweep", before, g)
	}
}

// TestChaosSweepHMatrixPoisonedACA: a NaN poisoned into the first ACA cross
// row fails exactly one compressed scenario with the typed
// hmatrix.ErrNonFinite build error (inside a *hmatrix.BuildError naming the
// block), while sibling scenarios complete bit-identically to a clean run
// and no worker goroutine is left behind.
func TestChaosSweepHMatrixPoisonedACA(t *testing.T) {
	g := hmatrixChaosGrid()
	opt := Options{Config: hmatrixChaosConfig()}
	scens := chaosScenarios(5)

	baseline := runChaosSweep(t, g, scens, opt)
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("clean run: scenario %d failed: %v", i, r.Err)
		}
		if r.Res.HMatrix.LowRank == 0 {
			t.Fatalf("scenario %d built no ACA blocks; the fault site would never fire", i)
		}
	}

	before := runtime.NumGoroutine()
	defer faultinject.Set(faultinject.HMatrixACABlock,
		faultinject.Once(faultinject.PoisonNaN()))()

	faulty := runChaosSweep(t, g, scens, opt)
	assertIsolated(t, baseline, faulty, map[int]bool{0: true})
	if !errors.Is(faulty[0].Err, hmatrix.ErrNonFinite) {
		t.Fatalf("victim Err = %v, want hmatrix.ErrNonFinite", faulty[0].Err)
	}
	var be *hmatrix.BuildError
	if !errors.As(faulty[0].Err, &be) {
		t.Fatalf("victim Err = %v, want *hmatrix.BuildError in the chain", faulty[0].Err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestChaosSweepHMatrixStalledCG: a NaN poisoned into the compressed
// operator's product vector breaks that scenario's CG recurrence with the
// typed linalg.ErrCGBreakdown (inside a *hmatrix.SolveError) — and with the
// dense fallback disabled the failure stays a failure — while sibling
// scenarios are bit-identical to the clean baseline.
func TestChaosSweepHMatrixStalledCG(t *testing.T) {
	g := hmatrixChaosGrid()
	opt := Options{Config: hmatrixChaosConfig()}
	scens := chaosScenarios(5)

	baseline := runChaosSweep(t, g, scens, opt)

	before := runtime.NumGoroutine()
	defer faultinject.Set(faultinject.HMatrixCGIter,
		faultinject.Once(faultinject.PoisonNaN()))()

	faulty := runChaosSweep(t, g, scens, opt)
	assertIsolated(t, baseline, faulty, map[int]bool{0: true})
	if !errors.Is(faulty[0].Err, linalg.ErrCGBreakdown) {
		t.Fatalf("victim Err = %v, want linalg.ErrCGBreakdown", faulty[0].Err)
	}
	var se *hmatrix.SolveError
	if !errors.As(faulty[0].Err, &se) {
		t.Fatalf("victim Err = %v, want *hmatrix.SolveError in the chain", faulty[0].Err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestChaosSweepSharedJobFailure: scenarios riding a failed job through the
// solve-reuse tier fail with it (they have no system of their own), while
// independent jobs are untouched.
func TestChaosSweepSharedJobFailure(t *testing.T) {
	g := chaosGrid()
	opt := Options{Config: chaosConfig()}
	scens := []Scenario{
		{Model: soil.NewUniform(0.010)},
		{Model: soil.NewUniform(0.020)}, // victim job
		{Model: soil.NewUniform(0.030)},
		{Model: soil.NewUniform(0.020), GPR: 25_000}, // solve-reuse on the victim job
	}

	baseline := runChaosSweep(t, g, scens, opt)

	target := firstColumnOf(t, g, scens, opt, 1)
	defer faultinject.Set(faultinject.SweepColumn,
		faultinject.At(target, faultinject.Panic("shared job fault")))()

	faulty := runChaosSweep(t, g, scens, opt)
	assertIsolated(t, baseline, faulty, map[int]bool{1: true, 3: true})
	if faulty[1].Err != faulty[3].Err {
		t.Error("scenarios of one failed job should share the same Err")
	}
}
