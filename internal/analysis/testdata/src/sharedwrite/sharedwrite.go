// Fixture for the sharedwrite analyzer: unguarded writes to captured state
// in parallel bodies — ForStatsCtx iterations, ForTilesCtx tiles and go
// statements — are flagged; index-partitioned, lock-guarded and
// literal-local writes are accepted.
package fixture

import (
	"sync"

	"fixture/sched"
)

func Parallel(n int, x, y []float64) float64 {
	sum := 0.0
	sched.ForStatsCtx(nil, n, 4, func(i, _ int) {
		sum += x[i] // want "write to captured"
	})

	sched.ForStatsCtx(nil, n, 4, func(i, _ int) {
		y[i] = 2 * x[i] // partitioned by the loop index
	})

	busy := make([]int, 4)
	sched.ForStatsCtx(nil, n, 4, func(_, w int) {
		busy[w]++ // partitioned by the worker id
	})

	var mu sync.Mutex
	guarded := 0.0
	sched.ForStatsCtx(nil, n, 4, func(i, _ int) {
		mu.Lock()
		guarded += x[i] // the body acquires a sync lock
		mu.Unlock()
	})

	visited := 0
	sched.ForTilesCtx(nil, n, 8, 4, func(lo, hi int) {
		visited += hi - lo // want "write to captured"
	})

	sched.ForTilesCtx(nil, n, 8, 4, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			y[r] += x[r] // partitioned by a row of the tile
		}
	})

	count := 0
	go func() {
		count++ // want "increment/decrement to captured"
	}()

	total, _ := sched.ForStatsCtx(nil, n, 4, func(i, _ int) {
		local := x[i]
		local *= 2 // local to the literal
		y[i] = local
	})

	return sum + guarded + float64(visited+count+total+busy[0])
}
