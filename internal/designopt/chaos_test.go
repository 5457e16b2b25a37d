package designopt

import (
	"context"
	"errors"
	"math"
	"testing"

	"earthing/internal/faultinject"
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
