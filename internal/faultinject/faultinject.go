// Package faultinject is a deterministic fault-injection registry for the
// resilience test suites. Production code is instrumented with named
// injection points (Fire calls) at the places the chaos tests need to break:
// pair-class evaluations, quadrature kernels, the solvers, the server cache
// and the admission path. Tests install hooks that panic, poison buffers with NaN, delay, or
// cancel contexts at an exact, reproducible firing — which is what makes
// graceful degradation testable under -race.
//
// The registry is stdlib-only and always compiled in. When no hook is
// installed the per-call cost of an instrumented site is a single atomic
// load and a predictable branch, so the hot loops (element-pair kernels at
// ~µs per call) are unaffected in production.
//
// Hooks are process-global; tests that install them must not run in
// parallel with each other and must restore on exit:
//
//	defer faultinject.Set(faultinject.AssemblyPair,
//		faultinject.Counted(3, faultinject.Panic("injected")))()
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site compiled into production code.
type Point string

// The instrumented sites.
const (
	// AssemblyPair fires once per evaluated pair class — the unit of the
	// MatrixCtx pair loop, each class standing for every congruent element
	// pair (see bem.PairClass) — with i = the evaluating column β and
	// data = the class's elemental matrix (poisoning it poisons every
	// member pair). The sweep runs its jobs one at a time in plan order, so
	// the n-th firing of a sweep belongs to a known job: with C classes per
	// job, firings k·C+1 … (k+1)·C are job k's.
	AssemblyPair Point = "bem.assembly.pair"
	// Quadrature fires on entry of the slow quadrature kernel (models
	// without an image expansion), once per such pair — those pairs have
	// no class and are evaluated one by one — with i = pair column β and
	// data = the elemental output buffer.
	Quadrature Point = "bem.quadrature"
	// Solve fires on entry of the linear-system-solving stage, with
	// i = system order and data = the RHS vector.
	Solve Point = "core.solve"
	// CholeskyPanel fires once per panel of the blocked factorization
	// (linalg.NewCholeskyBlocked), before the panel is factored, with
	// i = panel index and data = the panel's leading diagonal entry
	// (poisonable: a NaN there surfaces as ErrNotPositiveDefinite, the
	// typed per-scenario failure the sweep isolates).
	CholeskyPanel Point = "linalg.cholesky.panel"
	// HMatrixACABlock fires once per admissible block inside the ACA loop
	// (hmatrix build), after the first cross row is generated, with
	// i = block index and data = the generated row (poisonable: a NaN there
	// surfaces as the typed hmatrix.ErrNonFinite build failure the sweep
	// isolates per scenario).
	HMatrixACABlock Point = "hmatrix.ACABlock"
	// HMatrixCGIter fires once per H-matrix operator application of the
	// compressed CG solve, with i = the application count and data = the
	// product vector y (poisonable: a NaN there breaks the CG recurrence
	// into the typed linalg.ErrCGBreakdown).
	HMatrixCGIter Point = "hmatrix.CGIter"
	// OptimizeCandidate fires once per unique candidate evaluation of the
	// design-synthesis engine (internal/designopt), after the candidate's
	// voltages are extracted and before the objective is scored, with
	// i = the candidate's evaluation ordinal and data = the four scored
	// values [cost, maxStep, maxTouch, maxMesh] (poisonable: a NaN there
	// fails that one candidate with the penalty objective while the rest of
	// the search continues).
	OptimizeCandidate Point = "designopt.candidate"
	// CacheGet fires on every server cache lookup (i = 0, data = nil).
	CacheGet Point = "server.cache.get"
	// Admission fires on every server admission attempt (i = 0, data = nil).
	Admission Point = "server.admission"
	// StoreRead fires once per record decoded during scenario-store replay,
	// with i = the record ordinal and data = a one-element scratch. Delay
	// hooks open a deterministic mid-replay window for readiness tests.
	StoreRead Point = "store.read"
	// StoreWrite fires once per record the store's write-behind loop is
	// about to commit, with i = the write ordinal and data = a one-element
	// scratch: setting data[0] != 0 (e.g. PoisonNaN) simulates a failed
	// disk write (ENOSPC), and a panicking hook is recovered and counted —
	// either way the record survives in memory and no request is harmed.
	StoreWrite Point = "store.write"
	// ClusterPeerFetch fires once per peer-fetch attempt on the requesting
	// node, with i = the attempt number (1-based) and data = a one-element
	// scratch. Delay hooks simulate a slow peer to drive the per-attempt
	// timeout, retry and local-solve fallback ladder.
	ClusterPeerFetch Point = "cluster.peer.fetch"
	// ClusterPeerRespond fires in the owning node's /internal/v1/entry
	// handler before the encoded record goes on the wire, with i = 0 and
	// data = a one-element scratch: setting data[0] != 0 (e.g. PoisonNaN)
	// flips a byte of the transmitted copy, simulating a poisoned peer whose
	// response must fail the requester's checksum verification.
	ClusterPeerRespond Point = "cluster.peer.respond"
)

// Hook is an injected fault. i is a site-specific index (column, pair or
// iteration); data, when non-nil, is a mutable view of the numeric buffer
// the site is about to commit, so hooks can poison results in place.
type Hook func(i int, data []float64)

// registry is the installed hook set, copy-on-write so Fire never locks.
var (
	mu        sync.Mutex
	installed atomic.Int64                   // fast-path guard: number of installed hooks
	hooks     atomic.Pointer[map[Point]Hook] // current hook map, replaced wholesale on Set/Clear
)

// Active reports whether any hook is installed. Instrumented call sites may
// use it to skip argument preparation, but Fire itself is already cheap when
// inactive.
func Active() bool { return installed.Load() > 0 }

// Fire invokes the hook installed at p, if any. When no hook is installed
// anywhere the cost is one atomic load.
func Fire(p Point, i int, data []float64) {
	if installed.Load() == 0 {
		return
	}
	if m := hooks.Load(); m != nil {
		if h, ok := (*m)[p]; ok {
			h(i, data)
		}
	}
}

// Set installs h at point p, replacing any previous hook there, and returns
// a restore func that reinstates the previous state. Passing a nil h clears
// the point.
func Set(p Point, h Hook) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	old := hooks.Load()
	var prev Hook
	next := map[Point]Hook{}
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
		prev = next[p]
	}
	if h == nil {
		delete(next, p)
	} else {
		next[p] = h
	}
	hooks.Store(&next)
	installed.Store(int64(len(next)))
	return func() { Set(p, prev) }
}

// Reset removes every installed hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	empty := map[Point]Hook{}
	hooks.Store(&empty)
	installed.Store(0)
}

// --- hook combinators ---

// Panic returns a hook that panics with msg every time it fires.
func Panic(msg string) Hook {
	return func(int, []float64) { panic(msg) }
}

// PoisonNaN returns a hook that writes NaN into the first element of the
// site's data buffer, silently corrupting the numeric result the way a bad
// kernel evaluation would.
func PoisonNaN() Hook {
	nan := func() float64 {
		var z float64
		return z / z
	}()
	return func(_ int, data []float64) {
		if len(data) > 0 {
			data[0] = nan
		}
	}
}

// Delay returns a hook that sleeps for d every time it fires, for exercising
// deadline and cancellation paths deterministically.
func Delay(d time.Duration) Hook {
	return func(int, []float64) { time.Sleep(d) }
}

// Call returns a hook that invokes f (e.g. a context.CancelFunc) every time
// it fires.
func Call(f func()) Hook {
	return func(int, []float64) { f() }
}

// Counted wraps h so that only the n-th firing (1-based) invokes it; every
// other firing is a no-op. The count is shared across goroutines, so under a
// parallel loop exactly one worker takes the fault.
func Counted(n int64, h Hook) Hook {
	var calls atomic.Int64
	return func(i int, data []float64) {
		if calls.Add(1) == n {
			h(i, data)
		}
	}
}

// At wraps h so it fires only when the site index equals i — e.g. exactly
// one panel of a blocked factorization.
func At(i int, h Hook) Hook {
	return func(j int, data []float64) {
		if j == i {
			h(j, data)
		}
	}
}

// Once wraps h so only its first firing invokes it.
func Once(h Hook) Hook { return Counted(1, h) }
