package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"earthing/internal/faultinject"
)

// fastScenario solves in ~10 ms: a coarse lattice in uniform soil with a
// loose series tolerance. width parameterizes the cache key.
func fastScenario(width float64, gpr float64) string {
	return fmt.Sprintf(`{
		"grid": {"rect": {"width": %g, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"soil": {"kind": "uniform", "gamma1": 0.0125},
		"seriesTol": 1e-3,
		"gpr": %g
	}`, width, gpr)
}

// holdAssembly blocks every pair-class evaluation until release is called
// (at the latest at cleanup, before the test server closes), so a solve
// holds its admission slot for exactly as long as a test needs, however fast
// the kernels are. entered closes when the first evaluation blocks: a
// request is then mid-assembly under a slot, its deadline clock running.
// The hook is process-global; the server tests do not run in parallel.
func holdAssembly(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	gate, in := make(chan struct{}), make(chan struct{})
	var enter, open sync.Once
	restore := faultinject.Set(faultinject.AssemblyPair, faultinject.Call(func() {
		enter.Do(func() { close(in) })
		<-gate
	}))
	release = func() {
		open.Do(func() {
			close(gate)
			restore()
		})
	}
	t.Cleanup(release)
	return in, release
}

// releaseAfterDeadline releases a held assembly once a request deadline of
// d, started before the assembly blocked, has certainly passed: the solve
// then resumes into an expired context.
func releaseAfterDeadline(entered <-chan struct{}, release func(), d time.Duration) {
	go func() {
		<-entered
		time.Sleep(2 * d)
		release()
	}()
}

// cancelNotice is how long a test lets the server notice a client's
// cancellation, which reaches the request context asynchronously through
// the closed connection, before a held assembly resumes.
const cancelNotice = 100 * time.Millisecond

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body to path and returns the response status, headers and body.
func post(t *testing.T, ctx context.Context, base, path, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func getStats(t *testing.T, base string) Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveCacheHitMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})

	code, hdr, first := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", code, first)
	}
	if got := hdr.Get("X-Groundd-Cache"); got != "miss" {
		t.Errorf("first solve cache disposition = %q, want miss", got)
	}
	var resp SolveResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ReqOhms <= 0 || resp.GPR != 10_000 || resp.Elements == 0 {
		t.Errorf("implausible solve response: %+v", resp)
	}
	// Current must respect Ohm's law at the requested GPR.
	if want := resp.GPR / resp.ReqOhms; resp.CurrentAmps != want {
		t.Errorf("CurrentAmps = %g, want GPR/Req = %g", resp.CurrentAmps, want)
	}

	code, hdr, second := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("second solve: status %d: %s", code, second)
	}
	if got := hdr.Get("X-Groundd-Cache"); got != "hit" {
		t.Errorf("second solve cache disposition = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs from fresh:\n%s\n%s", first, second)
	}
	if n := s.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("assemblies = %d after one unique scenario, want 1", n)
	}
	if st := getStats(t, ts.URL); st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestGPRLinearity: the cached unit solve serves every GPR; doubling the GPR
// exactly doubles every raster sample (×2 is exact in binary floating point).
func TestGPRLinearity(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	raster := func(gpr float64) RasterResponse {
		body := fmt.Sprintf(`{
			"grid": {"rect": {"width": 20, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
			"soil": {"kind": "uniform", "gamma1": 0.0125},
			"seriesTol": 1e-3, "gpr": %g, "nx": 8, "ny": 8
		}`, gpr)
		code, _, b := post(t, context.Background(), ts.URL, "/v1/raster", body)
		if code != http.StatusOK {
			t.Fatalf("raster gpr=%g: status %d: %s", gpr, code, b)
		}
		var r RasterResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := raster(1), raster(2)
	if len(r1.V) != 64 || len(r2.V) != len(r1.V) {
		t.Fatalf("raster sizes %d, %d; want 64", len(r1.V), len(r2.V))
	}
	for i := range r1.V {
		if r2.V[i] != 2*r1.V[i] {
			t.Fatalf("V[%d]: gpr=2 sample %g != 2 × gpr=1 sample %g", i, r2.V[i], r1.V[i])
		}
		if r1.V[i] <= 0 || r1.V[i] > 1 {
			t.Fatalf("V[%d] = %g outside (0, GPR]", i, r1.V[i])
		}
	}
}

// TestDeterminismAcrossWorkers pins the acceptance contract: the same
// scenario solved fresh at different parallel widths and schedules, or
// served from cache, yields byte-identical response bodies, and so does its
// /v1/raster. The lattice case has 369 DoF, above the size where a parallel
// factorization splits its work (a 25-DoF grid never reaches it).
func TestDeterminismAcrossWorkers(t *testing.T) {
	variants := []string{
		`"workers": 1`,
		`"workers": 2`,
		`"workers": 4, "schedule": "static"`,
		`"workers": 3, "schedule": "guided,2"`,
	}
	cases := []struct{ name, grid, extra string }{
		{"5x5", `{"rect": {"width": 30, "height": 30, "nx": 5, "ny": 5, "depth": 0.8, "radius": 0.006}}`, ``},
		{"9x9-369dof", `{"rect": {"width": 60, "height": 60, "nx": 9, "ny": 9, "depth": 0.8, "radius": 0.006}}`, `"maxElemLen": 3,`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scenario := func(v string) string {
				return fmt.Sprintf(`{
					"grid": %s,
					"soil": {"kind": "two-layer", "gamma1": 0.005, "gamma2": 0.016, "h1": 1.0},
					"seriesTol": 1e-4, "gpr": 10000, %s %s
				}`, c.grid, c.extra, v)
			}
			var solves, rasters [][]byte
			for _, v := range variants {
				// A fresh server per variant: every solve is a genuine cold
				// assembly + factorization at that worker count.
				_, ts := newTestServer(t, Config{MaxConcurrent: 4})
				code, hdr, b := post(t, context.Background(), ts.URL, "/v1/solve", scenario(v))
				if code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", v, code, b)
				}
				if hdr.Get("X-Groundd-Cache") != "miss" {
					t.Fatalf("%s: expected a cold solve", v)
				}
				solves = append(solves, b)

				// And the warm replay on the same server must be byte-identical too.
				_, hdr, cached := post(t, context.Background(), ts.URL, "/v1/solve", scenario(v))
				if hdr.Get("X-Groundd-Cache") != "hit" {
					t.Fatalf("%s: replay did not hit the cache", v)
				}
				if !bytes.Equal(b, cached) {
					t.Errorf("%s: cached body differs from fresh", v)
				}

				code, _, r := post(t, context.Background(), ts.URL, "/v1/raster", scenario(v+`, "nx": 16, "ny": 16`))
				if code != http.StatusOK {
					t.Fatalf("%s: raster status %d: %s", v, code, r)
				}
				rasters = append(rasters, r)
			}
			for i := 1; i < len(variants); i++ {
				if !bytes.Equal(solves[0], solves[i]) {
					t.Errorf("variant %q /v1/solve body differs from %q:\n%s\n%s",
						variants[i], variants[0], solves[i], solves[0])
				}
				if !bytes.Equal(rasters[0], rasters[i]) {
					t.Errorf("variant %q /v1/raster body differs from %q", variants[i], variants[0])
				}
			}
		})
	}
}

// TestConcurrentMixedLoadWithCancellation is the acceptance scenario: ≥ 16
// concurrent requests with mixed cache hits and misses, half cancelled
// mid-flight. Cancelled requests must return promptly without leaking
// goroutines, cache hits must perform no assembly, and the server must drain
// back to idle.
func TestConcurrentMixedLoadWithCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4, QueueDepth: 32, CacheEntries: 16})

	// Pre-warm the hit scenario: exactly one assembly.
	if code, _, b := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000)); code != http.StatusOK {
		t.Fatalf("pre-warm: status %d: %s", code, b)
	}
	if n := s.Counters().Assemblies.Load(); n != 1 {
		t.Fatalf("pre-warm assemblies = %d, want 1", n)
	}
	baselineGoroutines := runtime.NumGoroutine()
	// The cancelled solves cannot finish before their cancellation.
	_, release := holdAssembly(t)

	const half = 8 // 8 cache hits + 8 cancelled misses = 16 concurrent
	type outcome struct {
		code int
		hdr  http.Header
		body []byte
	}
	hits := make([]outcome, half)
	cancelled := make([]outcome, half)
	var wg sync.WaitGroup

	// Half the load: distinct scenarios, each cancelled mid-flight (the
	// held assemblies cannot finish; the cancel fires at 100 ms, landing
	// either mid-assembly or in the admission queue).
	for i := 0; i < half; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(100 * time.Millisecond)
				cancel()
			}()
			defer cancel()
			start := time.Now()
			code, hdr, body := postNoFatal(t, ctx, ts.URL, "/v1/solve", fastScenario(60+float64(i), 10_000))
			if d := time.Since(start); d > 10*time.Second {
				t.Errorf("cancelled request %d took %v to return", i, d)
			}
			cancelled[i] = outcome{code, hdr, body}
		}(i)
	}
	// The other half: repeats of the pre-warmed scenario.
	for i := 0; i < half; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, hdr, body := postNoFatal(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
			hits[i] = outcome{code, hdr, body}
		}(i)
	}
	wg.Wait()
	time.Sleep(cancelNotice)
	release()

	for i, o := range hits {
		if o.code != http.StatusOK {
			t.Errorf("hit %d: status %d: %s", i, o.code, o.body)
			continue
		}
		if got := o.hdr.Get("X-Groundd-Cache"); got != "hit" {
			t.Errorf("hit %d: cache disposition %q, want hit", i, got)
		}
		if !bytes.Equal(o.body, hits[0].body) {
			t.Errorf("hit %d: body differs from hit 0", i)
		}
	}
	for i, o := range cancelled {
		// Client-side cancellation surfaces as a transport error (code 0):
		// the HTTP client abandons the response. The server-side accounting
		// below confirms the request was seen and aborted.
		if o.code != 0 && o.code != StatusClientClosedRequest {
			t.Errorf("cancelled %d: status %d, want transport abort or %d: %s",
				i, o.code, StatusClientClosedRequest, o.body)
		}
	}

	// (b) No cache-hit performed an assembly, and none of the cancelled
	// solves completed one: the counter still reads the pre-warm value.
	if n := s.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("assemblies = %d after mixed load, want 1 (pre-warm only)", n)
	}
	if h := s.Counters().CacheHits.Load(); h < half {
		t.Errorf("cache hits = %d, want ≥ %d", h, half)
	}

	// (a) Cancelled requests released their slots and goroutines: the server
	// drains back to idle.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := getStats(t, ts.URL)
		if st.BusyWorkers == 0 && st.QueueDepth == 0 {
			if g := runtime.NumGoroutine(); g <= baselineGoroutines+10 {
				break
			}
		}
		if time.Now().After(deadline) {
			st := getStats(t, ts.URL)
			t.Fatalf("server did not drain: busy=%d queued=%d goroutines=%d (baseline %d)",
				st.BusyWorkers, st.QueueDepth, runtime.NumGoroutine(), baselineGoroutines)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// (c) Responses stayed deterministic throughout: a post-load replay is
	// byte-identical to the concurrent hits.
	_, _, replay := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if len(hits[0].body) > 0 && !bytes.Equal(replay, hits[0].body) {
		t.Errorf("post-load replay differs from concurrent hit")
	}
}

// postNoFatal is post for concurrent goroutines: transport errors (e.g.
// context cancellation aborting the request) return code 0 instead of
// failing the test.
func postNoFatal(t *testing.T, ctx context.Context, base, path, body string) (int, http.Header, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil, nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b
}

// TestQueueFull429 drives the admission queue to capacity and checks the
// overflow request is shed immediately with 429.
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	_, release := holdAssembly(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	// Occupy the single slot with a held solve.
	wg.Add(1)
	go func() {
		defer wg.Done()
		postNoFatal(t, ctx, ts.URL, "/v1/solve", fastScenario(100, 10_000))
	}()
	waitFor(t, func() bool { return s.Counters().BusyWorkers.Load() == 1 })

	// Fill the queue's single place.
	wg.Add(1)
	go func() {
		defer wg.Done()
		postNoFatal(t, ctx, ts.URL, "/v1/solve", fastScenario(101, 10_000))
	}()
	waitFor(t, func() bool { return s.Counters().QueueDepth.Load() == 1 })

	// The next distinct scenario must be rejected, not queued.
	code, _, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(102, 10_000))
	if code != http.StatusTooManyRequests {
		t.Errorf("overflow request: status %d, want 429: %s", code, body)
	}
	if n := s.Counters().RejectedQueueFull.Load(); n != 1 {
		t.Errorf("rejectedQueueFull = %d, want 1", n)
	}

	cancel()
	release()
	wg.Wait()
}

// TestDeadline504: a request deadline shorter than the solve returns 504 and
// bumps the deadline counter. The assembly is held until the deadline has
// passed, so the outcome does not depend on the kernel speed.
func TestDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	entered, release := holdAssembly(t)
	releaseAfterDeadline(entered, release, 50*time.Millisecond)
	body := strings.Replace(fastScenario(110, 10_000), `"seriesTol"`, `"timeoutMs": 50, "seriesTol"`, 1)
	code, _, resp := post(t, context.Background(), ts.URL, "/v1/solve", body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, resp)
	}
	if n := s.Counters().DeadlineExceeded.Load(); n != 1 {
		t.Errorf("deadlineExceeded = %d, want 1", n)
	}
	waitFor(t, func() bool { return s.Counters().BusyWorkers.Load() == 0 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 15s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSafetyEndpoint checks the IEEE Std 80 verdict path end to end.
func TestSafetyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	body := `{
		"grid": {"rect": {"width": 20, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"soil": {"kind": "uniform", "gamma1": 0.0125},
		"seriesTol": 1e-3, "gpr": 5000,
		"criteria": {"faultDurationS": 0.5, "soilRho": 80, "surfaceRho": 3000, "surfaceThicknessM": 0.1}
	}`
	code, _, b := post(t, context.Background(), ts.URL, "/v1/safety", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp SafetyResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.GPR != 5000 || resp.StepLimitV <= 0 || resp.TouchLimitV <= 0 {
		t.Errorf("implausible safety response: %+v", resp)
	}
	if resp.StepV <= 0 || resp.TouchV <= 0 || resp.TouchV > resp.GPR {
		t.Errorf("implausible voltages: %+v", resp)
	}
	if want := resp.StepOK && resp.TouchOK && resp.MeshOK; resp.Safe != want {
		t.Errorf("Safe = %v inconsistent with per-criterion flags %+v", resp.Safe, resp)
	}
}

// TestStepRasterEndpoint checks the gradient field path.
func TestStepRasterEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	body := `{
		"grid": {"rect": {"width": 20, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"soil": {"kind": "uniform", "gamma1": 0.0125},
		"seriesTol": 1e-3, "gpr": 1000, "kind": "step", "nx": 8, "ny": 8
	}`
	code, _, b := post(t, context.Background(), ts.URL, "/v1/raster", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp RasterResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "step" || len(resp.V) != 64 {
		t.Fatalf("raster %q with %d samples, want step/64", resp.Kind, len(resp.V))
	}
	for i, v := range resp.V {
		if v < 0 {
			t.Fatalf("V[%d] = %g: step-voltage magnitude must be non-negative", i, v)
		}
	}
}

// TestBadRequests: hostile inputs must come back 400, never panic the
// handler (the soil constructors panic on non-positive parameters when not
// validated first).
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	cases := []struct {
		name, path, body string
	}{
		{"malformed json", "/v1/solve", `{"grid":`},
		{"unknown field", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "bogus": 1}`},
		{"no grid selected", "/v1/solve", `{"soil": {"kind": "uniform", "gamma1": 1}}`},
		{"two grids selected", "/v1/solve", `{"grid": {"builtin": "barbera", "text": "x"}, "soil": {"kind": "uniform", "gamma1": 1}}`},
		{"unknown builtin", "/v1/solve", `{"grid": {"builtin": "fenwick"}, "soil": {"kind": "uniform", "gamma1": 1}}`},
		{"bad grid text", "/v1/solve", `{"grid": {"text": "conductor 1 2"}, "soil": {"kind": "uniform", "gamma1": 1}}`},
		{"unknown soil kind", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "volcanic"}}`},
		{"negative gamma", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": -1}}`},
		{"zero gamma", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 0}}`},
		{"negative layer depth", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "two-layer", "gamma1": 1, "gamma2": 2, "h1": -3}}`},
		{"bad multi soil", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "multi", "gammas": [1, -2], "thicknesses": [1]}}`},
		{"negative gpr", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "gpr": -5}`},
		{"negative workers", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "workers": -2}`},
		{"bad schedule", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "schedule": "fifo"}`},
		{"bad chunk", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "schedule": "dynamic,0"}`},
		{"negative timeout", "/v1/solve", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "timeoutMs": -1}`},
		{"degenerate rect", "/v1/solve", `{"grid": {"rect": {"width": -5, "height": 10, "nx": 3, "ny": 3, "radius": 0.01}}, "soil": {"kind": "uniform", "gamma1": 1}}`},
		{"degenerate rod", "/v1/solve", `{"grid": {"rect": {"width": 5, "height": 5, "nx": 2, "ny": 2, "radius": 0.01, "rods": [{"x": 0, "y": 0, "length": -2, "radius": 0.01}]}}, "soil": {"kind": "uniform", "gamma1": 1}}`},
		{"unknown raster kind", "/v1/raster", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "kind": "aura"}`},
		{"oversize raster", "/v1/raster", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "nx": 4096}`},
		{"single-column raster", "/v1/raster", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "nx": 1}`},
		{"overflowing raster margin", "/v1/raster", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "margin": 1e308}`},
		{"no fault duration", "/v1/safety", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "criteria": {"soilRho": 100}}`},
		{"bad body weight", "/v1/safety", `{"grid": {"builtin": "barbera"}, "soil": {"kind": "uniform", "gamma1": 1}, "criteria": {"faultDurationS": 0.5, "soilRho": 100, "weight": "90kg"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := post(t, context.Background(), ts.URL, tc.path, tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", code, body)
			}
		})
	}
}

// TestHealthz and the method guard on the JSON endpoints.
func TestRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: %d, want 405", resp.StatusCode)
	}
}

// TestLRUEviction: the cache is size-bounded; the oldest system leaves.
func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2, 0)
	c.put("a", nil)
	c.put("b", nil)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted prematurely")
	}
	c.put("c", nil) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}
