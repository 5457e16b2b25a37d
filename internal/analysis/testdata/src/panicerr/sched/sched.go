// Package sched stubs the scheduler surface panicerr matches by
// package-path suffix: the two containment loops and their typed panic
// error.
package sched

import "context"

// PanicError mirrors the real containment error.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return "panic in worker" }

// Stats mirrors the loop statistics record.
type Stats struct{ Workers int }

func ForStatsCtx(ctx context.Context, n int, body func(i, worker int)) (Stats, error) {
	_ = ctx
	_ = n
	_ = body
	return Stats{}, nil
}

func ForTilesCtx(ctx context.Context, n, tile int, body func(lo, hi int)) error {
	_ = ctx
	_ = n
	_ = tile
	_ = body
	return nil
}
