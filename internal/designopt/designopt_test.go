package designopt

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/safety"
	"earthing/internal/soil"
)

// testSpec is a small, fast design problem: a 10 m × 10 m site in uniform
// soil with a modest fault current, searched over a few dozen candidates.
// The aggressive series tolerance keeps solves cheap — the tests pin search
// mechanics and determinism, not physical accuracy.
func testSpec() Spec {
	return Spec{
		Width: 10, Height: 10,
		Model:        soil.NewUniform(0.02), // ρ = 50 Ω·m
		FaultCurrent: 100,
		Safety:       safety.Criteria{FaultDuration: 0.5, SoilRho: 50},
		MinLines:     2, MaxLines: 4,
		MaxRods:  2,
		MinDepth: 0.5, MaxDepth: 0.7, DepthStep: 0.1,
		VoltageRes: 2.5,
	}
}

func testOptions(workers int) Options {
	return Options{
		Config: core.Config{
			RodElements: 2,
			BEM:         bem.Options{Workers: workers, SeriesTol: 1e-2},
		},
		Starts:   2,
		MaxEvals: 120,
	}
}

func TestOptimizeFindsFeasibleDesign(t *testing.T) {
	var trace []Progress
	best, stats, err := Stream(context.Background(), testSpec(), testOptions(0),
		func(p Progress) error { trace = append(trace, p); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || !best.Feasible {
		t.Fatalf("best = %+v, want feasible design", best)
	}
	if !best.Verdict.Safe() {
		t.Errorf("best verdict not safe: %s", best.Verdict)
	}
	if best.Objective != best.Cost {
		t.Errorf("feasible best: objective %g != cost %g", best.Objective, best.Cost)
	}
	if best.Grid == nil || best.Grid.TotalLength() <= 0 {
		t.Error("best design carries no grid")
	}
	if best.NX < 2 || best.NX > 4 || best.NY < 2 || best.NY > 4 ||
		best.Rods < 0 || best.Rods > 2 || best.Depth < 0.5 || best.Depth > 0.7 {
		t.Errorf("best design outside bounds: %+v", best)
	}

	// Stream invariants: at least one emission, strictly improving under the
	// feasible-first order, final emission equals the returned best.
	if len(trace) == 0 {
		t.Fatal("no progress emitted")
	}
	for i := 1; i < len(trace); i++ {
		a, b := trace[i].Best, trace[i-1].Best
		if !better(a, candidate{a.NX, a.NY, a.Rods, a.Depth}.key(),
			b, candidate{b.NX, b.NY, b.Rods, b.Depth}.key()) {
			t.Errorf("progress %d did not improve: %+v after %+v", i, a, b)
		}
	}
	final := trace[len(trace)-1].Best
	if final.Objective != best.Objective || final.NX != best.NX || final.NY != best.NY {
		t.Errorf("final progress %+v != returned best %+v", final, *best)
	}

	// Accounting: every request is a solve or a cache hit, and the quantized
	// space bounds the unique evaluations.
	if stats.Requested != stats.Evaluated+stats.CacheHits {
		t.Errorf("requested %d != evaluated %d + hits %d", stats.Requested, stats.Evaluated, stats.CacheHits)
	}
	if space := 3 * 3 * 3 * 3; stats.Evaluated > space {
		t.Errorf("evaluated %d > candidate space %d", stats.Evaluated, space)
	}
	if stats.Evaluated == 0 || stats.CacheHits == 0 {
		t.Errorf("expected both fresh evals and cache hits, got %+v", stats)
	}
	if stats.Failed != 0 {
		t.Errorf("unexpected failed candidates: %d", stats.Failed)
	}
}

// TestOptimizeDeterministicAcrossWorkers is the reproducibility contract:
// the whole search — every progress line, the final design, the counters —
// is bit-identical at any worker count.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		var lines []json.RawMessage
		best, stats, err := Stream(context.Background(), testSpec(), testOptions(workers),
			func(p Progress) error {
				b, err := json.Marshal(p)
				if err != nil {
					return err
				}
				lines = append(lines, b)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(struct {
			Best  *Design
			Stats Stats
			Trace []json.RawMessage
		}{best, stats, lines})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != base {
			t.Errorf("workers=%d search differs from workers=1:\n%s\nvs\n%s", w, got, base)
		}
	}
}

// TestOptimizeNoFeasible: an impossible fault current leaves every candidate
// unsafe — the search reports ErrNoFeasible and still returns the best
// (least-violating) layout.
func TestOptimizeNoFeasible(t *testing.T) {
	spec := testSpec()
	spec.FaultCurrent = 1e6
	best, stats, err := Run(context.Background(), spec, testOptions(0))
	if !errors.Is(err, ErrNoFeasible) {
		t.Fatalf("err = %v, want ErrNoFeasible", err)
	}
	if best == nil || best.Feasible {
		t.Fatalf("best = %+v, want non-nil infeasible design", best)
	}
	if best.Objective <= best.Cost {
		t.Errorf("infeasible best: objective %g not penalized above cost %g", best.Objective, best.Cost)
	}
	if stats.Evaluated == 0 {
		t.Error("no candidates evaluated")
	}
}

// TestOptimizeWideSite: a 600 m site at the default 1 m voltage resolution
// samples 605² points per candidate, past the 512² raster groundd allows one
// request. The library search has no such cap: every candidate is scored,
// none fails.
func TestOptimizeWideSite(t *testing.T) {
	spec := testSpec()
	spec.Width, spec.Height = 600, 600
	spec.MaxLines = 2
	spec.MaxRods = 1
	spec.VoltageRes = 0
	opt := testOptions(0)
	opt.Starts, opt.MaxEvals = 1, 4
	best, stats, err := Run(context.Background(), spec, opt)
	if err != nil && !errors.Is(err, ErrNoFeasible) {
		t.Fatal(err)
	}
	if best == nil || stats.Evaluated == 0 || stats.Failed != 0 {
		t.Fatalf("best %+v, stats %+v: want every candidate scored", best, stats)
	}
	if best.Voltages.MaxTouch <= 0 || best.Voltages.MaxStep <= 0 {
		t.Errorf("best voltages %+v, want a computed extraction", best.Voltages)
	}
}

func TestOptimizeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(ctx, testSpec(), testOptions(0))
	if err == nil {
		t.Fatal("cancelled search returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestOptimizeSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
	}{
		{"zero-width", func(s *Spec) { s.Width = 0 }},
		{"nil-model", func(s *Spec) { s.Model = nil }},
		{"zero-fault-current", func(s *Spec) { s.FaultCurrent = 0 }},
		{"nan-fault-current", func(s *Spec) { s.FaultCurrent = math.NaN() }},
		{"no-safety", func(s *Spec) { s.Safety = safety.Criteria{} }},
		{"negative-rods", func(s *Spec) { s.MaxRods = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mod(&spec)
			if _, _, err := Run(context.Background(), spec, testOptions(0)); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
}

// TestOptimizeQuantization pins the candidate encoding: rounding, clamping
// and the depth lattice.
func TestOptimizeQuantization(t *testing.T) {
	spec, err := testSpec().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    []float64
		want candidate
	}{
		{[]float64{2.4, 3.6, 0.2, 0.5}, candidate{2, 4, 0, 0.5}},
		{[]float64{-5, 99, 99, 99}, candidate{2, 4, 2, 0.7}},
		{[]float64{3, 3, 1.5, 0.64}, candidate{3, 3, 2, 0.6}},
	}
	for _, tc := range cases {
		if got := spec.quantize(tc.x); got != tc.want {
			t.Errorf("quantize(%v) = %+v, want %+v", tc.x, got, tc.want)
		}
	}
	// The grid matches the encoding: rods appear in the layout and the cost
	// prices them at the rod rate.
	c := candidate{3, 3, 2, 0.6}
	g := spec.buildGrid(c)
	if g.NumRods() != 2 {
		t.Errorf("built grid has %d rods, want 2", g.NumRods())
	}
	wantCost := (g.TotalLength()-2*spec.RodLength)*spec.ConductorCost + 2*spec.RodLength*spec.RodCost
	if got := spec.cost(c, g); got != wantCost {
		t.Errorf("cost = %g, want %g", got, wantCost)
	}
}
