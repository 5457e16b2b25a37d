package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// kinds covers every schedule the Ctx variants must honour, including the
// pre-split static block path.
var ctxKinds = []Schedule{
	{Kind: Static},
	{Kind: Static, Chunk: 4},
	{Kind: Dynamic, Chunk: 1},
	{Kind: Dynamic, Chunk: 8},
	{Kind: Guided, Chunk: 2},
}

// TestForCtxCompletesWithoutError: a background or nil context never
// aborts, and every iteration runs exactly once.
func TestForCtxCompletesWithoutError(t *testing.T) {
	for _, s := range ctxKinds {
		for _, p := range []int{1, 3} {
			for _, ctx := range []context.Context{context.Background(), nil} {
				var n64 int64
				_, err := ForStatsCtx(ctx, 100, p, s, func(i, _ int) {
					atomic.AddInt64(&n64, 1)
				})
				if err != nil {
					t.Errorf("%v p=%d: unexpected error %v", s, p, err)
				}
				if n64 != 100 {
					t.Errorf("%v p=%d: ran %d iterations, want 100", s, p, n64)
				}
			}
		}
	}
}

// TestForCtxCancelStopsEarly: cancelling mid-loop stops workers at chunk
// boundaries — far fewer than n iterations run and ctx.Err() is surfaced.
func TestForCtxCancelStopsEarly(t *testing.T) {
	const n = 100_000
	for _, s := range ctxKinds {
		for _, p := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var ran int64
			_, err := ForStatsCtx(ctx, n, p, s, func(i, _ int) {
				if atomic.AddInt64(&ran, 1) == 50 {
					cancel()
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v p=%d: error = %v, want context.Canceled", s, p, err)
			}
			// Workers may finish in-flight chunks; even the largest guided
			// first chunk is bounded well below n.
			if ran >= n {
				t.Errorf("%v p=%d: all %d iterations ran despite cancellation", s, p, ran)
			}
		}
	}
}

// TestForStatsCtxCancelledStatsPartial: the returned stats count only the
// iterations that actually executed.
func TestForStatsCtxCancelledStatsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the loop starts
	st, err := ForStatsCtx(ctx, 1000, 4, Schedule{Kind: Dynamic, Chunk: 1}, func(i, w int) {
		t.Error("body ran under a pre-cancelled context")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	total := 0
	for _, c := range st.PerWorker {
		total += c
	}
	if total != 0 {
		t.Fatalf("%d iterations ran under a pre-cancelled context", total)
	}
}

// TestForCtxLateCancelNoSpuriousError: a context cancelled during the final
// iteration must not fail a loop in which every iteration ran.
func TestForCtxLateCancelNoSpuriousError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	_, err := ForStatsCtx(ctx, 64, 2, Schedule{Kind: Dynamic, Chunk: 64}, func(i, _ int) {
		if atomic.AddInt64(&ran, 1) == 64 {
			cancel() // fires with no work left to distribute
		}
	})
	if err != nil {
		t.Fatalf("completed loop returned %v", err)
	}
	if ran != 64 {
		t.Fatalf("ran %d iterations, want 64", ran)
	}
}
