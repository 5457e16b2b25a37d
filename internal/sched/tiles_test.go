package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestNumTiles(t *testing.T) {
	cases := []struct{ n, tile, want int }{
		{0, 4, 0},
		{-3, 4, 0},
		{1, 4, 1},
		{4, 4, 1},
		{5, 4, 2},
		{8, 4, 2},
		{9, 4, 3},
		{7, 0, 7},  // tile ≤ 0 treated as 1
		{7, -2, 7}, // tile ≤ 0 treated as 1
		{300, 64, 5},
	}
	for _, c := range cases {
		if got := NumTiles(c.n, c.tile); got != c.want {
			t.Errorf("NumTiles(%d, %d) = %d, want %d", c.n, c.tile, got, c.want)
		}
	}
}

// TestForTilesCoversDisjointly checks the partition contract every tiled
// kernel relies on: the emitted [lo, hi) ranges cover [0, n) exactly once,
// including the short last tile.
func TestForTilesCoversDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 65, 127, 300} {
		for _, tile := range []int{1, 3, 64} {
			for _, p := range []int{1, 4} {
				var mu sync.Mutex
				seen := make([]int, n)
				err := ForTilesCtx(nil, n, tile, p, Schedule{Kind: Dynamic, Chunk: 1}, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d tile=%d: bad range [%d, %d)", n, tile, lo, hi)
						return
					}
					mu.Lock()
					for i := lo; i < hi; i++ {
						seen[i]++
					}
					mu.Unlock()
				})
				if err != nil {
					t.Fatalf("n=%d tile=%d p=%d: %v", n, tile, p, err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d tile=%d p=%d: index %d visited %d times", n, tile, p, i, c)
					}
				}
			}
		}
	}
}

func TestForTilesCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := ForTilesCtx(ctx, 1000, 8, 2, Schedule{Kind: Dynamic, Chunk: 1}, func(lo, hi int) { ran += hi - lo })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran == 1000 {
		t.Error("cancelled loop still visited every index")
	}
}

func TestForTilesCtxPanicContained(t *testing.T) {
	err := ForTilesCtx(context.Background(), 100, 8, 2, Schedule{Kind: Dynamic, Chunk: 1}, func(lo, hi int) {
		if lo == 0 {
			panic("tile fault")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "tile fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
}
