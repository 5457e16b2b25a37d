package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"earthing/internal/faultinject"
)

// resetFaults guards against a failing test leaving a process-global hook
// installed for the rest of the package run.
func resetFaults(t *testing.T) {
	t.Helper()
	t.Cleanup(faultinject.Reset)
}

// TestChaosPanicContainment16Way is the acceptance chaos suite: under a
// 16-way concurrent load with a panic injected into exactly one assembly
// worker, the poisoned request gets a 500 with a diagnostic, every other
// request's response is byte-identical to an uninjected baseline, the panic
// counter moves by exactly one, the process survives and no goroutines leak.
func TestChaosPanicContainment16Way(t *testing.T) {
	resetFaults(t)
	const n = 16
	// Caching disabled: every request must assemble, so the injected fault
	// can land in any of them and the bit-identity comparison is between
	// fresh solves, not cache echoes.
	s, ts := newTestServer(t, Config{MaxConcurrent: n, QueueDepth: n, Workers: 2, CacheEntries: -1})

	scenario := func(i int) string { return fastScenario(20+float64(i), 10_000) }

	// Uninjected baselines, one per scenario.
	baseline := make([][]byte, n)
	for i := 0; i < n; i++ {
		code, _, body := post(t, context.Background(), ts.URL, "/v1/solve", scenario(i))
		if code != http.StatusOK {
			t.Fatalf("baseline %d: status %d: %s", i, code, body)
		}
		baseline[i] = body
	}

	http.DefaultClient.CloseIdleConnections()
	goroutinesBefore := runtime.NumGoroutine()

	// Exactly one element-pair evaluation, in whichever request's worker
	// reaches it first, panics.
	defer faultinject.Set(faultinject.AssemblyPair,
		faultinject.Once(faultinject.Panic("chaos: injected worker fault")))()

	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = postNoFatal(t, context.Background(), ts.URL, "/v1/solve", scenario(i))
		}(i)
	}
	wg.Wait()

	var failed, ok int
	for i := 0; i < n; i++ {
		switch codes[i] {
		case http.StatusInternalServerError:
			failed++
			if !strings.Contains(string(bodies[i]), "worker panic") ||
				!strings.Contains(string(bodies[i]), "chaos: injected worker fault") {
				t.Errorf("request %d: 500 body lacks the panic diagnostic: %s", i, bodies[i])
			}
		case http.StatusOK:
			ok++
			if !bytes.Equal(bodies[i], baseline[i]) {
				t.Errorf("request %d: response differs from uninjected baseline\n got: %s\nwant: %s",
					i, bodies[i], baseline[i])
			}
		default:
			t.Errorf("request %d: unexpected status %d: %s", i, codes[i], bodies[i])
		}
	}
	if failed != 1 || ok != n-1 {
		t.Errorf("got %d failed / %d ok, want exactly 1 / %d", failed, ok, n-1)
	}
	if got := s.Counters().WorkerPanics.Load(); got != 1 {
		t.Errorf("workerPanics = %d, want 1", got)
	}

	// The process (trivially) survived; prove the pool did too: a fresh
	// solve still works and all request goroutines have drained.
	if code, _, body := post(t, context.Background(), ts.URL, "/v1/solve", scenario(0)); code != http.StatusOK {
		t.Errorf("post-chaos solve: status %d: %s", code, body)
	}
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, func() bool {
		http.DefaultClient.CloseIdleConnections()
		return runtime.NumGoroutine() <= goroutinesBefore+2
	})
}

// TestChaosHandlerPanicRecovery: a panic on the handler goroutine itself
// (outside any parallel loop) is caught at the ServeHTTP boundary — 500 with
// a diagnostic, handlerPanics counter bumped, server keeps serving.
func TestChaosHandlerPanicRecovery(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, CacheEntries: -1})

	defer faultinject.Set(faultinject.Solve,
		faultinject.Once(faultinject.Panic("solver exploded")))()

	code, _, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", code, body)
	}
	if !strings.Contains(string(body), "internal panic: solver exploded") {
		t.Errorf("500 body lacks the diagnostic: %s", body)
	}
	if got := s.Counters().HandlerPanics.Load(); got != 1 {
		t.Errorf("handlerPanics = %d, want 1", got)
	}
	if code, _, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000)); code != http.StatusOK {
		t.Errorf("follow-up solve: status %d: %s", code, body)
	}
}

// TestChaosHealthCheck422: with the server's health checks on, a NaN
// poisoned into the solve stage is rejected as 422 with a typed health
// diagnostic instead of serving garbage, and the healthFailures counter
// moves.
func TestChaosHealthCheck422(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, CacheEntries: -1, HealthCheck: true})

	defer faultinject.Set(faultinject.Solve, faultinject.PoisonNaN())()

	code, _, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", code, body)
	}
	if !strings.Contains(string(body), "health check") {
		t.Errorf("422 body lacks the health diagnostic: %s", body)
	}
	if got := s.Counters().HealthFailures.Load(); got != 1 {
		t.Errorf("healthFailures = %d, want 1", got)
	}

	faultinject.Reset()
	if code, _, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000)); code != http.StatusOK {
		t.Errorf("clean solve after poison: status %d: %s", code, body)
	}
}

// TestChaosSweepPartialFailure: one poisoned scenario in a sweep batch
// reports its error on its own NDJSON line while the other scenarios keep
// streaming results.
func TestChaosSweepPartialFailure(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, Workers: 2, CacheEntries: -1})

	var scens []string
	for i := 0; i < 5; i++ {
		// Distinct γ₂/γ₁ ratios: five jobs (uniform soils of different γ
		// would be proportional and share one).
		scens = append(scens, fmt.Sprintf(`{"id": "c%d", "soil": {"kind": "two-layer", "gamma1": 0.01, "gamma2": %g, "h1": 5}}`, i, 0.012+0.002*float64(i)))
	}
	body := fmt.Sprintf(`{
		"grid": {"rect": {"width": 20, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"seriesTol": 1e-3,
		"scenarios": [%s]
	}`, strings.Join(scens, ","))

	// Panic in the first pair class evaluated; exactly one job fails.
	defer faultinject.Set(faultinject.AssemblyPair,
		faultinject.Once(faultinject.Panic("chaos: sweep worker fault")))()

	code, _, resp := post(t, context.Background(), ts.URL, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, resp)
	}
	var failed, ok int
	for _, line := range strings.Split(strings.TrimSpace(string(resp)), "\n") {
		var sl SweepLine
		if err := json.Unmarshal([]byte(line), &sl); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if sl.Index < 0 {
			t.Fatalf("sweep-level error line, want per-scenario isolation: %s", line)
		}
		if sl.Error != "" {
			failed++
			if !strings.Contains(sl.Error, "chaos: sweep worker fault") {
				t.Errorf("scenario %d error lacks the fault: %s", sl.Index, sl.Error)
			}
			continue
		}
		ok++
		if sl.ReqOhms <= 0 {
			t.Errorf("scenario %d: non-physical ReqOhms %g", sl.Index, sl.ReqOhms)
		}
	}
	if failed != 1 || ok != 4 {
		t.Errorf("got %d failed / %d ok lines, want 1 / 4", failed, ok)
	}
	if got := s.Counters().WorkerPanics.Load(); got != 1 {
		t.Errorf("workerPanics = %d, want 1", got)
	}
}

// TestChaosOptimizePoisonedCandidate: a candidate evaluation poisoned inside
// a /v1/optimize search fails that one design — the search completes, streams
// a 200 and still closes with a feasible best, with exactly one failure in
// the terminal stats.
func TestChaosOptimizePoisonedCandidate(t *testing.T) {
	resetFaults(t)
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, Workers: 2})

	defer faultinject.Set(faultinject.OptimizeCandidate,
		faultinject.At(2, faultinject.PoisonNaN()))()

	code, _, resp := post(t, context.Background(), ts.URL, "/v1/optimize", fastOptimize(""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, resp)
	}
	lines := decodeOptimize(t, resp)
	final := lines[len(lines)-1]
	if !final.Final || final.Stats == nil {
		t.Fatalf("terminal line %+v, want final summary", final)
	}
	if final.Stats.Failed != 1 {
		t.Errorf("failed candidates = %d, want exactly the poisoned one", final.Stats.Failed)
	}
	if final.Best == nil || !final.Best.Feasible {
		t.Errorf("final best %+v, want feasible design despite poisoned sibling", final.Best)
	}
	if final.Error != "" {
		t.Errorf("terminal error %q, want clean completion", final.Error)
	}
}

// TestChaosRetryAfterOn429: load-shed responses carry a Retry-After hint
// derived from the backlog.
func TestChaosRetryAfterOn429(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1, CacheEntries: -1})

	// Hold the single slot long enough to shed the overflow deterministically.
	defer faultinject.Set(faultinject.Solve, faultinject.Delay(500*time.Millisecond))()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postNoFatal(t, ctx, ts.URL, "/v1/solve", fastScenario(30+float64(i), 10_000))
		}(i)
	}
	waitFor(t, func() bool {
		return s.Counters().BusyWorkers.Load() == 1 && s.Counters().QueueDepth.Load() == 1
	})

	code, hdr, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(40, 10_000))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Error("429 response lacks a Retry-After header")
	}
	wg.Wait()
}

// drainHarness runs RunUntilSignal on a loopback listener and returns the
// base URL, the signal channel and the exit-error channel.
func drainHarness(t *testing.T, s *Server, drainTimeout time.Duration) (string, chan os.Signal, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- RunUntilSignal(s, nil, ln, sig, drainTimeout, t.Logf) }()
	return "http://" + ln.Addr().String(), sig, done
}

// TestDrainGracefulShutdown races an in-flight solve against SIGTERM: the
// server flips /readyz to 503, refuses new work with Retry-After, lets the
// in-flight request finish with a 200, and RunUntilSignal exits cleanly.
func TestDrainGracefulShutdown(t *testing.T) {
	resetFaults(t)
	s := New(Config{MaxConcurrent: 2, CacheEntries: -1})
	base, sig, done := drainHarness(t, s, 30*time.Second)

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain /readyz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Park one request inside the solve stage.
	defer faultinject.Set(faultinject.Solve, faultinject.Delay(700*time.Millisecond))()
	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		code, _, body := postNoFatal(t, context.Background(), base, "/v1/solve", fastScenario(20, 10_000))
		inflight <- result{code, body}
	}()
	waitFor(t, func() bool { return s.Counters().BusyWorkers.Load() == 1 })

	sig <- syscall.SIGTERM
	waitFor(t, s.Draining)

	// Readiness reports draining while the in-flight request completes.
	// (The listener may already be closed for NEW connections — both
	// refusing and 503 are valid shedding here, so tolerate a dial error.)
	if resp, err := http.Get(base + "/readyz"); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining /readyz: status %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}

	r := <-inflight
	if r.code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200: %s", r.code, r.body)
	}
	if err := <-done; err != nil {
		t.Errorf("RunUntilSignal = %v, want clean drain", err)
	}
}

// TestDrainRejectsNewWork: a draining server sheds new solves with 503 and a
// Retry-After hint (checked via SetDraining directly, where the listener
// stays open).
func TestDrainRejectsNewWork(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, CacheEntries: -1})
	s.SetDraining(true)

	code, hdr, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 response lacks a Retry-After header")
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz status %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Liveness stays green: draining is not a reason to kill the process.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz status %d, want 200 while draining", resp.StatusCode)
		}
		resp.Body.Close()
	}

	s.SetDraining(false)
	if code, _, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000)); code != http.StatusOK {
		t.Errorf("post-drain solve: status %d: %s", code, body)
	}
}

// TestDrainTimeoutExpires: when in-flight work outlives the drain window,
// RunUntilSignal reports the timeout instead of hanging forever.
func TestDrainTimeoutExpires(t *testing.T) {
	resetFaults(t)
	s := New(Config{MaxConcurrent: 1, CacheEntries: -1})
	base, sig, done := drainHarness(t, s, 100*time.Millisecond)

	defer faultinject.Set(faultinject.Solve, faultinject.Delay(2*time.Second))()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		postNoFatal(t, context.Background(), base, "/v1/solve", fastScenario(20, 10_000))
	}()
	waitFor(t, func() bool { return s.Counters().BusyWorkers.Load() == 1 })

	sig <- syscall.SIGTERM
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "drain timeout") {
		t.Errorf("RunUntilSignal = %v, want drain timeout error", err)
	}
	// The stuck request still finishes on its own; reap it so the test ends
	// with no goroutines in flight.
	<-finished
}
