// Package sched mirrors the runner's two loops, ForStatsCtx and ForTilesCtx,
// so the sharedwrite fixture exercises detection by import-path suffix,
// exactly as the real earthing/internal/sched package matches.
package sched

import "context"

func ForStatsCtx(_ context.Context, n, _ int, body func(i, worker int)) (int, error) {
	for i := 0; i < n; i++ {
		body(i, 0)
	}
	return n, nil
}

func ForTilesCtx(_ context.Context, n, tile, _ int, body func(lo, hi int)) error {
	for lo := 0; lo < n; lo += tile {
		body(lo, min(lo+tile, n))
	}
	return nil
}
