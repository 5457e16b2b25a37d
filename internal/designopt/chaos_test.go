package designopt

import (
	"context"
	"errors"
	"math"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/faultinject"
	"earthing/internal/post"
	"earthing/internal/soil"
)

// TestChaosOptimizePoisonedCandidate is the fault-containment contract: a
// poisoned candidate evaluation fails that one design — it scores the finite
// failPenalty and ranks last — while the search completes and still returns
// a feasible best.
func TestChaosOptimizePoisonedCandidate(t *testing.T) {
	defer faultinject.Set(faultinject.OptimizeCandidate,
		faultinject.At(2, faultinject.PoisonNaN()))()

	best, stats, err := Run(context.Background(), testSpec(), testOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 {
		t.Errorf("failed candidates = %d, want exactly the poisoned one", stats.Failed)
	}
	if best == nil || !best.Feasible {
		t.Fatalf("best = %+v, want feasible design despite poisoned sibling", best)
	}
	if math.IsNaN(best.Objective) || math.IsInf(best.Objective, 0) || best.Objective >= failPenalty {
		t.Errorf("poison leaked into the best objective: %g", best.Objective)
	}
}

// TestChaosOptimizePanickingCandidate: a hook that panics at the injection
// point is contained to its candidate, not the search.
func TestChaosOptimizePanickingCandidate(t *testing.T) {
	defer faultinject.Set(faultinject.OptimizeCandidate,
		faultinject.At(1, faultinject.Panic("injected candidate panic")))()

	best, stats, err := Run(context.Background(), testSpec(), testOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 {
		t.Errorf("failed candidates = %d, want exactly the panicked one", stats.Failed)
	}
	if best == nil || !best.Feasible {
		t.Fatalf("best = %+v, want feasible design despite panicking sibling", best)
	}
}

// TestChaosOptimizeAnalysisPanic: a panic inside one candidate's analysis —
// here at the solve stage, on the search's own goroutine — fails that
// candidate alone, and the search still returns a feasible best.
func TestChaosOptimizeAnalysisPanic(t *testing.T) {
	defer faultinject.Set(faultinject.Solve,
		faultinject.Once(faultinject.Panic("injected solve panic")))()

	best, stats, err := Run(context.Background(), testSpec(), testOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 {
		t.Errorf("failed candidates = %d, want exactly the panicked one", stats.Failed)
	}
	if best == nil || !best.Feasible {
		t.Fatalf("best = %+v, want feasible design despite panicking sibling", best)
	}
}

// TestChaosOptimizeAllPoisoned: when every evaluation is poisoned no design
// survives — the typed ErrAllFailed comes back instead of garbage.
func TestChaosOptimizeAllPoisoned(t *testing.T) {
	defer faultinject.Set(faultinject.OptimizeCandidate, faultinject.PoisonNaN())()

	best, stats, err := Run(context.Background(), testSpec(), testOptions(0))
	if !errors.Is(err, ErrAllFailed) {
		t.Fatalf("err = %v, want ErrAllFailed", err)
	}
	if best != nil {
		t.Errorf("best = %+v, want nil when every candidate failed", best)
	}
	if stats.Failed != stats.Evaluated || stats.Failed == 0 {
		t.Errorf("failed %d / evaluated %d, want all failed", stats.Failed, stats.Evaluated)
	}
}

// TestChaosOptimizeMemoContainment: a fault in one candidate's pair loop —
// a poisoned class matrix, then a panic — fails that candidate alone. Every
// other candidate has the Req and voltages of a fault-free search bit for
// bit (of a fresh analysis, for a candidate the fault-free search never
// asked for). The hook stays installed for the whole struck search, so no
// loop of it publishes (faultinject.Active) and its ladder's memos stay
// empty; a fault-free search run afterwards on that ladder fills them and
// matches the fault-free search too. That a failed loop publishes nothing
// when no hook is installed is TestSharedLadderMemoFailedClassLoop's.
func TestChaosOptimizeMemoContainment(t *testing.T) {
	ctx := context.Background()
	spec := testSpec()
	spec.Model = soil.NewTwoLayer(0.005, 0.02, 1.5)
	opt := testOptions(2)
	opt.Starts = 4
	search := func(t *testing.T, lad *bem.Ladder) *engine {
		t.Helper()
		e, err := newEngine(spec, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lad != nil {
			e.ladder = lad
		}
		if _, _, err := e.search(ctx); err != nil && !errors.Is(err, ErrNoFeasible) {
			t.Fatal(err)
		}
		return e
	}
	bits := func(d Design) []float64 {
		return []float64{d.Req, d.Voltages.GPR, d.Voltages.MaxTouch, d.Voltages.MaxStep, d.Voltages.MaxMesh}
	}
	same := func(t *testing.T, label string, got, want Design) {
		t.Helper()
		g, w := bits(got), bits(want)
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Errorf("%s: (Req, GPR, touch, step, mesh) = %v, want %v", label, g, w)
				return
			}
		}
	}

	clean := search(t, nil)
	if clean.stats.Failed != 0 {
		t.Fatalf("fault-free search: %d failed candidates", clean.stats.Failed)
	}
	for _, tc := range []struct {
		name string
		hook faultinject.Hook
	}{
		{"poison", faultinject.PoisonNaN()},
		{"panic", faultinject.Panic("injected pair panic")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := faultinject.Set(faultinject.AssemblyPair, faultinject.Once(tc.hook))
			struck := search(t, nil)
			restore()
			if struck.stats.Failed != 1 {
				t.Fatalf("%d failed candidates, want the struck one alone", struck.stats.Failed)
			}
			checked := 0
			for k, ent := range struck.cache {
				if ent.failed {
					continue
				}
				want, ok := clean.cache[k]
				if !ok {
					d := ent.design
					res, err := core.AnalyzeCtx(ctx, struck.spec.buildGrid(candidate{d.NX, d.NY, d.Rods, d.Depth}), spec.Model, struck.cfg)
					if err != nil {
						t.Fatal(err)
					}
					gpr := res.Req * spec.FaultCurrent
					v, err := post.ComputeVoltagesCtx(ctx, res.Assembler(), res.Mesh, res.Sigma, gpr, spec.VoltageRes,
						post.SurfaceOptions{Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					want = &evalEntry{design: Design{Req: res.Req, Voltages: v}}
				}
				same(t, k, ent.design, want.design)
				checked++
			}
			if checked == 0 {
				t.Fatal("no candidate survived the fault")
			}
			t.Logf("%d candidates checked, %d in the fault-free search", checked, len(clean.cache))
			if n := struck.ladder.MemoBytes(); n != 0 {
				t.Errorf("the struck search published %d memo bytes under the hook", n)
			}

			again := search(t, struck.ladder)
			if struck.ladder.MemoBytes() == 0 {
				t.Error("the search after the fault published nothing")
			}
			if again.stats != clean.stats {
				t.Errorf("search on the struck ladder: stats %+v, fault-free %+v", again.stats, clean.stats)
			}
			for k, ent := range clean.cache {
				got, ok := again.cache[k]
				if !ok {
					t.Fatalf("%s: not evaluated on the struck ladder", k)
				}
				same(t, "struck ladder, "+k, got.design, ent.design)
			}
		})
	}
}
