package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// explode is a named panic site so tests can pin that the captured stack
// identifies the faulting function.
func explode(i int) {
	panic(fmt.Sprintf("injected failure at %d", i))
}

var panicSchedules = []Schedule{
	{Kind: Static},
	{Kind: Static, Chunk: 4},
	{Kind: Dynamic, Chunk: 1},
	{Kind: Dynamic, Chunk: 8},
	{Kind: Guided, Chunk: 2},
}

// TestPanicContainmentCtx: a panicking body surfaces as *PanicError from the
// ctx variants, with the loop joined (no goroutine leak), siblings stopped
// early, and a stack that names the faulting function.
func TestPanicContainmentCtx(t *testing.T) {
	const n = 10_000
	for _, s := range panicSchedules {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/p%d", s, p), func(t *testing.T) {
				before := runtime.NumGoroutine()
				var executed atomic.Int64
				st, err := ForStatsCtx(context.Background(), n, p, s, func(i, w int) {
					if i == n/2 {
						explode(i)
					}
					executed.Add(1)
				})
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want *PanicError", err)
				}
				if pe.Iteration != n/2 {
					t.Errorf("PanicError.Iteration = %d, want %d", pe.Iteration, n/2)
				}
				if pe.Worker < 0 || pe.Worker >= p {
					t.Errorf("PanicError.Worker = %d outside [0, %d)", pe.Worker, p)
				}
				if want := fmt.Sprintf("injected failure at %d", n/2); pe.Value != want {
					t.Errorf("PanicError.Value = %v, want %q", pe.Value, want)
				}
				if !strings.Contains(string(pe.Stack), "explode") {
					t.Errorf("captured stack does not name the faulting function:\n%s", pe.Stack)
				}
				if !strings.Contains(pe.Error(), "injected failure") {
					t.Errorf("Error() does not carry the panic value: %s", pe.Error())
				}
				// Siblings abandoned the loop: not every iteration ran.
				if got := executed.Load(); got >= n {
					t.Errorf("executed %d iterations, want < %d (siblings should stop)", got, n)
				}
				var statTotal int
				for _, c := range st.PerWorker {
					statTotal += c
				}
				if int64(statTotal) != executed.Load() {
					t.Errorf("Stats count %d iterations, body ran %d", statTotal, executed.Load())
				}
				// All workers joined: the goroutine count returns to baseline.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if g := runtime.NumGoroutine(); g > before {
					t.Errorf("goroutines leaked: %d > baseline %d", g, before)
				}
			})
		}
	}
}

// TestPanicRepanicNonCtx: a caller with no context and no error result
// (linalg.MulVecParallel, HMatrix.Apply) passes a nil ctx and re-raises the
// contained panic on its own goroutine; its caller recovers the
// *PanicError, after all workers joined, with the faulting frame on the
// captured stack.
func TestPanicRepanicNonCtx(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			recovered := func() (v any) {
				defer func() { v = recover() }()
				if _, err := ForStatsCtx(nil, 1000, p, Schedule{Kind: Dynamic, Chunk: 1}, func(i, w int) {
					if i == 100 {
						explode(i)
					}
				}); err != nil {
					panic(err)
				}
				return nil
			}()
			pe, ok := recovered.(*PanicError)
			if !ok {
				t.Fatalf("recovered %T (%v), want *PanicError", recovered, recovered)
			}
			if pe.Iteration != 100 {
				t.Errorf("Iteration = %d, want 100", pe.Iteration)
			}
			if !strings.Contains(string(pe.Stack), "explode") {
				t.Errorf("stack does not name the faulting function:\n%s", pe.Stack)
			}
		})
	}
}

// TestPanicErrorUnwrap: a body that panics with an error value stays
// reachable through errors.Is across the containment layer.
func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("kernel blew up")
	_, err := ForStatsCtx(context.Background(), 64, 2, Schedule{Kind: Static}, func(i, w int) {
		if i == 10 {
			panic(sentinel)
		}
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false; err = %v", err)
	}
}

// TestPanicWinsOverCancel: when a panic and a cancellation race, the loop
// reports the panic — the severer diagnosis.
func TestPanicWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := ForStatsCtx(ctx, 4096, 4, Schedule{Kind: Dynamic, Chunk: 1}, func(i, w int) {
		if i == 50 {
			cancel()
			panic("boom after cancel")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError to win over ctx cancellation", err)
	}
}

// TestUnknownScheduleKindPanicFree: the loop rejects a hand-built bad
// schedule kind with a typed error before any work starts; Validate catches
// it at construction time.
func TestUnknownScheduleKindPanicFree(t *testing.T) {
	bad := Schedule{Kind: Kind(99)}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted kind 99")
	}
	var ran atomic.Int64
	_, err := ForStatsCtx(context.Background(), 128, 4, bad, func(i, w int) { ran.Add(1) })
	var ue *UnknownScheduleError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnknownScheduleError", err)
	}
	if ue.Kind != Kind(99) {
		t.Errorf("UnknownScheduleError.Kind = %v, want 99", ue.Kind)
	}
	if ran.Load() != 0 {
		t.Errorf("%d iterations ran under an invalid schedule", ran.Load())
	}
}

// TestValidSchedulesStillComplete guards the containment plumbing: a loop
// without faults still executes every iteration exactly once.
func TestValidSchedulesStillComplete(t *testing.T) {
	const n = 5000
	for _, s := range panicSchedules {
		for _, p := range []int{1, 3, 8} {
			seen := make([]atomic.Int32, n)
			st, err := ForStatsCtx(context.Background(), n, p, s, func(i, w int) {
				seen[i].Add(1)
			})
			if err != nil {
				t.Fatalf("%v/p%d: err = %v", s, p, err)
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("%v/p%d: iteration %d ran %d times", s, p, i, c)
				}
			}
			if st.Iterations != n {
				t.Errorf("%v/p%d: Stats.Iterations = %d", s, p, st.Iterations)
			}
		}
	}
}
