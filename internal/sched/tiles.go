package sched

import "context"

// Tile helpers: the blocked linear-algebra kernels distribute work in
// contiguous index ranges (panel rows, trailing-update row tiles) rather than
// single iterations, because a tile owns a cache-sized slab of the packed
// matrix. These wrappers map a tile index space onto the existing schedule
// machinery so tiled loops inherit the OpenMP-style schedules, cancellation
// and panic containment of ForStatsCtx.

// NumTiles returns the number of tiles of size tile covering [0, n): the
// last tile may be short. tile ≤ 0 is treated as 1.
func NumTiles(n, tile int) int {
	if tile < 1 {
		tile = 1
	}
	if n <= 0 {
		return 0
	}
	return (n + tile - 1) / tile
}

// ForTilesCtx runs body(lo, hi) for every tile [lo, hi) of size tile
// covering [0, n), distributing tiles over p workers under schedule s with
// the cancellation and panic-containment semantics of ForStatsCtx: workers
// observe ctx at tile boundaries (nil never cancels) and a contained body
// panic is returned as a *PanicError. Tiles are disjoint, so bodies writing
// only inside their range need no synchronization.
func ForTilesCtx(ctx context.Context, n, tile, p int, s Schedule, body func(lo, hi int)) error {
	if tile < 1 {
		tile = 1
	}
	_, err := ForStatsCtx(ctx, NumTiles(n, tile), p, s, func(t, _ int) {
		lo := t * tile
		hi := lo + tile
		if hi > n {
			hi = n
		}
		body(lo, hi)
	})
	return err
}
