// Package sched provides an OpenMP-style parallel loop runner over goroutine
// workers. It reproduces the scheduling semantics the paper evaluates in
// Table 6.2 — static, static with chunk, dynamic with chunk, and guided —
// so that the matrix-generation loop of the BEM solver can be distributed
// among P workers exactly the way the original OpenMP code distributed the
// element-pair triangle among processors.
//
// The loop body receives iteration indices, not data, mirroring
// `#pragma omp for schedule(kind, chunk)` applied to `DO i = 1, n`.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind identifies an OpenMP schedule kind.
type Kind int

const (
	// Unspecified is the zero value: callers that receive it substitute
	// their documented default (packages bem and post use Dynamic,1, the
	// paper's best schedule). ForStatsCtx rejects it.
	Unspecified Kind = iota
	// Static splits the index range into equal blocks ahead of time. With a
	// chunk it deals fixed-size chunks round-robin, like schedule(static,c).
	Static
	// Dynamic hands out chunks of fixed size on demand: a worker grabs the
	// next chunk when it finishes the previous one, like schedule(dynamic,c).
	Dynamic
	// Guided hands out chunks of exponentially decreasing size, never below
	// the chunk parameter, like schedule(guided,c).
	Guided
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Unspecified:
		return "unspecified"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Schedule is a schedule kind plus chunk parameter. Chunk ≤ 0 means "no
// chunk specified": Static then pre-splits into one block per worker, while
// Dynamic and Guided default the chunk to 1, matching OpenMP defaults.
// The zero value has Kind Unspecified, which ForStatsCtx rejects; option
// structs use it to detect "use the package default".
type Schedule struct {
	Kind  Kind
	Chunk int
}

// IsZero reports whether the schedule is unspecified.
func (s Schedule) IsZero() bool { return s.Kind == Unspecified }

// Validate reports whether the schedule can drive a parallel loop: the kind
// must be Static, Dynamic or Guided. Construction-time callers (config
// parsing, servers) should validate here so a bad kind is a 4xx at the
// boundary, not an *UnknownScheduleError mid-loop.
func (s Schedule) Validate() error {
	switch s.Kind {
	case Static, Dynamic, Guided:
		return nil
	default:
		return &UnknownScheduleError{Kind: s.Kind}
	}
}

// String renders the schedule the way the paper's Table 6.2 labels rows,
// e.g. "static", "static,16", "dynamic,1", "guided,64".
func (s Schedule) String() string {
	if s.Chunk <= 0 {
		return s.Kind.String()
	}
	return fmt.Sprintf("%s,%d", s.Kind, s.Chunk)
}

// ParseSchedule parses labels of the form "dynamic,1", "static", "guided,16"
// (case-insensitive, spaces tolerated).
func ParseSchedule(s string) (Schedule, error) {
	parts := strings.SplitN(s, ",", 2)
	var sc Schedule
	switch strings.ToLower(strings.TrimSpace(parts[0])) {
	case "static":
		sc.Kind = Static
	case "dynamic":
		sc.Kind = Dynamic
	case "guided":
		sc.Kind = Guided
	default:
		return Schedule{}, fmt.Errorf("sched: unknown schedule kind %q", parts[0])
	}
	if len(parts) == 2 {
		c, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || c < 1 {
			return Schedule{}, fmt.Errorf("sched: bad chunk in %q", s)
		}
		sc.Chunk = c
	}
	return sc, nil
}

// Stats reports how a ParallelFor execution distributed work, for load-
// balance analysis in the schedule benchmarks.
type Stats struct {
	Workers    int
	Iterations int
	// PerWorker[w] is the number of loop iterations worker w executed.
	PerWorker []int
	// ChunksPerWorker[w] is the number of chunks worker w fetched.
	ChunksPerWorker []int
}

// Imbalance returns max(PerWorker)/mean(PerWorker) − 1; zero means perfectly
// balanced. Returns 0 for degenerate inputs.
func (s Stats) Imbalance() float64 {
	if s.Workers == 0 || s.Iterations == 0 {
		return 0
	}
	max := 0
	for _, n := range s.PerWorker {
		if n > max {
			max = n
		}
	}
	mean := float64(s.Iterations) / float64(s.Workers)
	if mean == 0 {
		return 0
	}
	return float64(max)/mean - 1
}

// Width returns the number of workers ForStatsCtx (and ForTilesCtx, over
// its tile count) runs for an n-iteration loop at requested width p: p, or
// runtime.GOMAXPROCS(0) when p ≤ 0, but never more than n. The worker ids a
// loop body receives lie in [0, Width(n, p)), so per-worker buffers sized by
// it need no clamp, and a hostile p costs no more than n workers.
func Width(n, p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return max(0, min(p, n))
}

// ForStatsCtx runs body(i, worker) for every i in [0, n) using p workers
// under the given schedule, blocking until the loop finishes, and returns
// execution statistics. It is the package's one loop (ForTilesCtx maps tile
// ranges onto it). p ≤ 0 selects runtime.GOMAXPROCS(0); p = 1 runs
// sequentially in the calling goroutine, the baseline the paper's speed-ups
// are referenced to.
//
// Workers observe ctx at chunk boundaries and stop claiming chunks once it
// is done, returning ctx.Err(); a nil ctx never cancels, so callers with
// nothing to cancel pass nil instead of minting a root context. A panic in
// a body is contained and returned as a *PanicError (siblings stop at their
// next poll, all workers join); a Schedule whose kind is not Static,
// Dynamic or Guided returns *UnknownScheduleError before any work starts.
// Stats reflect the iterations actually executed.
func ForStatsCtx(ctx context.Context, n, p int, s Schedule, body func(i, worker int)) (Stats, error) {
	cn := &canceller{}
	if ctx != nil {
		cn.done = ctx.Done()
	}
	p = Width(n, p)
	st := Stats{Workers: p, Iterations: n}
	if n == 0 {
		return st, nil
	}
	// safeBody contains body panics: the recovered value (with its stack) is
	// recorded on the control block and ok stays false, telling the worker to
	// stop immediately; stop() then halts every sibling at its next chunk
	// boundary. One deferred call per iteration is noise next to the µs-scale
	// kernel evaluations these loops carry.
	safeBody := func(i, w int) (ok bool) {
		defer func() {
			if v := recover(); v != nil {
				cn.recordPanic(v, i, w)
			}
		}()
		body(i, w)
		return true
	}
	st.PerWorker = make([]int, p)
	st.ChunksPerWorker = make([]int, p)
	if p == 1 {
		// Sequential path: every iteration is its own chunk boundary.
		count := 0
		for i := 0; i < n; i++ {
			if cn.stop() || !safeBody(i, 0) {
				break
			}
			count++
		}
		st.PerWorker[0] = count
		st.ChunksPerWorker[0] = 1
		return st, cn.loopErr(ctx)
	}

	var claim func(w, k int) (lo, hi int)
	switch s.Kind {
	case Static:
		claim = staticClaim(n, p, s.Chunk)
	case Dynamic:
		claim = dynamicClaim(n, max(s.Chunk, 1))
	case Guided:
		claim = guidedClaim(n, p, max(s.Chunk, 1))
	default:
		return st, &UnknownScheduleError{Kind: s.Kind}
	}
	runWorkers(p, claim, safeBody, &st, cn)
	return st, cn.loopErr(ctx)
}

// canceller is the shared per-loop control block: it adapts a context into
// the cheap per-chunk poll the inner loops use (a receive-with-default on
// Done, nil for background contexts) and records the first contained body
// panic, which aborts siblings the same way a cancellation does. aborted
// records whether any worker actually cut its loop short, so a context
// cancelled after the last iteration does not spuriously fail a completed
// loop.
type canceller struct {
	done     <-chan struct{}
	aborted  atomic.Bool
	panicErr atomic.Pointer[PanicError]
}

// stop reports whether the loop should abandon further chunks.
func (c *canceller) stop() bool {
	if c.panicErr.Load() != nil {
		return true
	}
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		c.aborted.Store(true)
		return true
	default:
		return false
	}
}

// loopErr resolves how an aborted loop failed: a contained panic wins over a
// concurrent cancellation (it is the severer diagnosis), then an actually
// aborted loop maps to its context error.
func (c *canceller) loopErr(ctx context.Context) error {
	if pe := c.panicErr.Load(); pe != nil {
		return pe
	}
	if c.aborted.Load() && ctx != nil {
		return ctx.Err()
	}
	return nil
}

// runWorkers runs p workers, each claiming chunks [lo, hi) from claim
// (given its worker id and how many chunks it already claimed) until claim
// returns an empty range. A worker polls cn before every chunk — only while
// work remains, so a context cancelled after the final chunk does not fail
// a completed loop — and every blockCheck iterations inside one, so a long
// chunk (a pre-split static block, an early guided chunk) does not run to
// completion after the loop was cancelled. body reports false when its
// iteration panicked, which stops this worker immediately (siblings stop at
// their next poll).
func runWorkers(p int, claim func(w, k int) (lo, hi int), body func(i, w int) bool, st *Stats, cn *canceller) {
	const blockCheck = 64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			count, chunks := 0, 0
		work:
			for {
				lo, hi := claim(w, chunks)
				if lo >= hi || cn.stop() {
					break
				}
				chunks++
				for i := lo; i < hi; i++ {
					if i > lo && (i-lo)%blockCheck == 0 && cn.stop() {
						break work
					}
					if !body(i, w) {
						break work
					}
					count++
				}
			}
			st.PerWorker[w] = count
			st.ChunksPerWorker[w] = chunks
		}(w)
	}
	wg.Wait()
}

// staticClaim implements schedule(static) and schedule(static,c): the full
// assignment of iterations to workers is fixed before the loop starts.
// Without a chunk each worker owns one contiguous block, sizes differing by
// ≤ 1; with one, fixed chunks are dealt round-robin — worker w owns chunks
// w, w+p, w+2p, …
func staticClaim(n, p, chunk int) func(w, k int) (lo, hi int) {
	if chunk < 1 {
		return func(w, k int) (lo, hi int) {
			if k > 0 {
				return n, n
			}
			return w * n / p, (w + 1) * n / p
		}
	}
	return func(w, k int) (lo, hi int) {
		lo = (w + k*p) * chunk
		return min(lo, n), min(lo+chunk, n)
	}
}

// dynamicClaim implements schedule(dynamic,c): an idle worker atomically
// claims the next chunk of c iterations.
func dynamicClaim(n, chunk int) func(w, k int) (lo, hi int) {
	var next int64
	return func(int, int) (lo, hi int) {
		lo = int(atomic.AddInt64(&next, int64(chunk))) - chunk
		return min(lo, n), min(lo+chunk, n)
	}
}

// guidedClaim implements schedule(guided,c): chunk sizes start at roughly
// remaining/(2p) — the proportion common OpenMP runtimes use — and decay
// exponentially, never below c. A mutex serializes the (cheap) chunk-size
// computation; the loop bodies run fully in parallel.
func guidedClaim(n, p, minChunk int) func(w, k int) (lo, hi int) {
	var mu sync.Mutex
	next := 0
	return func(int, int) (lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		size := max((n-next+2*p-1)/(2*p), minChunk)
		lo, hi = next, min(next+size, n)
		next = hi
		return lo, hi
	}
}
