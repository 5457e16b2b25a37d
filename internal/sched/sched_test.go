package sched

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var allSchedules = []Schedule{
	{Static, 0}, {Static, 1}, {Static, 4}, {Static, 16}, {Static, 64},
	{Dynamic, 0}, {Dynamic, 1}, {Dynamic, 4}, {Dynamic, 16}, {Dynamic, 64},
	{Guided, 0}, {Guided, 1}, {Guided, 4}, {Guided, 16}, {Guided, 64},
}

// TestCoverage verifies every schedule visits each index exactly once —
// the fundamental correctness contract of a work-sharing loop.
// run executes body through ForStatsCtx with no context, failing tb on a
// loop error (no body in these tests panics).
func run(tb testing.TB, n, p int, s Schedule, body func(i, w int)) Stats {
	tb.Helper()
	st, err := ForStatsCtx(nil, n, p, s, body)
	if err != nil {
		tb.Fatalf("%v n=%d p=%d: %v", s, n, p, err)
	}
	return st
}

func TestCoverage(t *testing.T) {
	for _, s := range allSchedules {
		for _, n := range []int{0, 1, 2, 7, 100, 408, 1000} {
			for _, p := range []int{1, 2, 3, 4, 8, 17} {
				visits := make([]int32, n)
				run(t, n, p, s, func(i, _ int) {
					atomic.AddInt32(&visits[i], 1)
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("%v n=%d p=%d: index %d visited %d times", s, n, p, i, v)
					}
				}
			}
		}
	}
}

func TestCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(500)
		p := 1 + r.Intn(12)
		s := allSchedules[r.Intn(len(allSchedules))]
		var total int64
		visits := make([]int32, n)
		run(t, n, p, s, func(i, _ int) {
			atomic.AddInt32(&visits[i], 1)
			atomic.AddInt64(&total, 1)
		})
		if total != int64(n) {
			return false
		}
		for _, v := range visits {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	for _, s := range allSchedules {
		st := run(t, 1000, 4, s, func(i, w int) {})
		if st.Workers != 4 || st.Iterations != 1000 {
			t.Fatalf("%v: stats header %+v", s, st)
		}
		sum := 0
		for _, c := range st.PerWorker {
			sum += c
		}
		if sum != 1000 {
			t.Fatalf("%v: PerWorker sums to %d", s, sum)
		}
	}
}

func TestStaticNoChunkBalance(t *testing.T) {
	st := run(t, 100, 4, Schedule{Static, 0}, func(i, w int) {})
	for w, c := range st.PerWorker {
		if c != 25 {
			t.Errorf("worker %d got %d iterations, want 25", w, c)
		}
	}
	if st.Imbalance() != 0 {
		t.Errorf("Imbalance = %v", st.Imbalance())
	}
}

func TestStaticChunkRoundRobin(t *testing.T) {
	// With static,2 and p=2 over n=8: worker0 gets {0,1,4,5}, worker1 {2,3,6,7}.
	owner := make([]int32, 8)
	run(t, 8, 2, Schedule{Static, 2}, func(i, w int) {
		atomic.StoreInt32(&owner[i], int32(w))
	})
	want := []int32{0, 0, 1, 1, 0, 0, 1, 1}
	for i := range want {
		if owner[i] != want[i] {
			t.Fatalf("owner = %v, want %v", owner, want)
		}
	}
}

// TestDynamicBalancesSkewedWork feeds a triangular workload (like the BEM
// outer loop, where cycle i couples element i with elements i..M) and checks
// dynamic,1 balances it much better than static with a large chunk.
func TestDynamicBalancesSkewedWork(t *testing.T) {
	n, p := 408, 4
	work := func(i int) {
		// Simulate cost proportional to n−i (linearly decreasing like the
		// element-pair triangle columns in §6.2).
		x := 0.0
		for k := 0; k < (n-i)*40; k++ {
			x += float64(k)
		}
		_ = x
	}
	elapsed := func(s Schedule) time.Duration {
		start := time.Now()
		run(t, n, p, s, func(i, _ int) { work(i) })
		return time.Since(start)
	}
	// Warm up.
	elapsed(Schedule{Dynamic, 1})
	dyn := elapsed(Schedule{Dynamic, 1})
	// static with one contiguous block per worker puts all heavy columns on
	// worker 0 — expected to be noticeably slower.
	stat := elapsed(Schedule{Static, 0})
	if dyn > stat {
		t.Logf("dynamic=%v static=%v (timing-sensitive; not failing hard)", dyn, stat)
	}
}

func TestGuidedChunkDecay(t *testing.T) {
	st := run(t, 1024, 4, Schedule{Guided, 1}, func(i, w int) {})
	totalChunks := 0
	for _, c := range st.ChunksPerWorker {
		totalChunks += c
	}
	// Guided should need far fewer chunks than dynamic,1 (=1024) but more
	// than static (=4).
	if totalChunks <= 4 || totalChunks >= 1024 {
		t.Errorf("guided chunk count = %d", totalChunks)
	}
}

// TestWorkerIDsWithinRange: worker ids lie in [0, Width(n, p)) and the loop
// runs exactly Width(n, p) workers — the contract per-worker buffers are
// sized by — including for p ≤ 0 (GOMAXPROCS) and p far beyond n.
func TestWorkerIDsWithinRange(t *testing.T) {
	for _, c := range []struct{ n, p int }{{500, 3}, {500, 0}, {5, 1 << 40}, {1, 64}} {
		width := Width(c.n, c.p)
		for _, s := range allSchedules {
			bad := int32(0)
			st := run(t, c.n, c.p, s, func(i, w int) {
				if w < 0 || w >= width {
					atomic.StoreInt32(&bad, 1)
				}
			})
			if bad != 0 {
				t.Fatalf("n=%d p=%d %v: worker id outside [0, %d)", c.n, c.p, s, width)
			}
			if st.Workers != width {
				t.Fatalf("n=%d p=%d %v: %d workers, Width says %d", c.n, c.p, s, st.Workers, width)
			}
		}
	}
}

func TestMoreWorkersThanIterations(t *testing.T) {
	var count int64
	st := run(t, 3, 16, Schedule{Dynamic, 1}, func(i, w int) {
		atomic.AddInt64(&count, 1)
	})
	if count != 3 {
		t.Errorf("count = %d", count)
	}
	if st.Workers > 3 {
		t.Errorf("workers = %d, should be clamped to n", st.Workers)
	}
}

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		in   string
		want Schedule
		ok   bool
	}{
		{"static", Schedule{Static, 0}, true},
		{"Static, 16", Schedule{Static, 16}, true},
		{"dynamic,1", Schedule{Dynamic, 1}, true},
		{"guided,64", Schedule{Guided, 64}, true},
		{"banana", Schedule{}, false},
		{"dynamic,0", Schedule{}, false},
		{"dynamic,x", Schedule{}, false},
	}
	for _, c := range cases {
		got, err := ParseSchedule(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseSchedule(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", c.in)
		}
	}
}

func TestScheduleString(t *testing.T) {
	if got := (Schedule{Dynamic, 1}).String(); got != "dynamic,1" {
		t.Errorf("String = %q", got)
	}
	if got := (Schedule{Static, 0}).String(); got != "static" {
		t.Errorf("String = %q", got)
	}
	// Round trip.
	for _, s := range allSchedules {
		back, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("round trip %v: %v", s, err)
		}
		// Chunk 0 on dynamic/guided normalizes at run time, not parse time.
		if back.Kind != s.Kind || back.Chunk != s.Chunk {
			t.Errorf("round trip %v -> %v", s, back)
		}
	}
}

func TestImbalanceComputation(t *testing.T) {
	st := Stats{Workers: 2, Iterations: 10, PerWorker: []int{9, 1}}
	if got := st.Imbalance(); got != 0.8 {
		t.Errorf("Imbalance = %v, want 0.8", got)
	}
	if (Stats{}).Imbalance() != 0 {
		t.Error("empty stats imbalance should be 0")
	}
}

func TestSequentialPathNoGoroutines(t *testing.T) {
	// p=1 must run in the calling goroutine: body can use goroutine-unsafe
	// state without races.
	counter := 0
	run(t, 100, 1, Schedule{Dynamic, 1}, func(int, int) { counter++ })
	if counter != 100 {
		t.Errorf("counter = %d", counter)
	}
}

func BenchmarkScheduleOverhead(b *testing.B) {
	for _, s := range []Schedule{{Static, 0}, {Dynamic, 1}, {Dynamic, 16}, {Guided, 1}} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, 4096, 4, s, func(int, int) {})
			}
		})
	}
}
