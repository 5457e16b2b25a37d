package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastSweep builds a /v1/sweep body over the fastScenario geometry with one
// uniform-soil scenario per (gamma, gpr) pair.
func fastSweep(width float64, extra string, scens ...[2]float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{
		"grid": {"rect": {"width": %g, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"seriesTol": 1e-3,%s
		"scenarios": [`, width, extra)
	for i, s := range scens {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"id": "s%d", "soil": {"kind": "uniform", "gamma1": %g}, "gpr": %g}`,
			i, s[0], s[1])
	}
	sb.WriteString("]}")
	return sb.String()
}

// decodeSweep parses an NDJSON response body into lines.
func decodeSweep(t *testing.T, body []byte) []SweepLine {
	t.Helper()
	var lines []SweepLine
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var l SweepLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("bad NDJSON line: %v\nbody: %s", err, body)
		}
		lines = append(lines, l)
	}
	return lines
}

// TestSweepOneAssemblyForGPRVariants is the regression pinning the reuse
// contract: a sweep over 10 GPR values of one scenario performs exactly one
// assembly — the cache key excludes GPR by design, and the engine rescales
// the unit solve for the other nine.
func TestSweepOneAssemblyForGPRVariants(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	var scens [][2]float64
	for i := 0; i < 10; i++ {
		scens = append(scens, [2]float64{0.0125, 1000 * float64(i+1)})
	}
	body := fastSweep(20, "", scens...)

	code, hdr, resp := post(t, context.Background(), ts.URL, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, resp)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := decodeSweep(t, resp)
	if len(lines) != 10 {
		t.Fatalf("%d lines, want 10: %s", len(lines), resp)
	}
	assembled, solve := 0, 0
	seen := make(map[int]SweepLine)
	for _, l := range lines {
		if l.Error != "" {
			t.Fatalf("unexpected error line: %+v", l)
		}
		seen[l.Index] = l
		switch l.Cache {
		case "assembled":
			assembled++
		case "solve":
			solve++
		default:
			t.Errorf("line %d: cache %q, want assembled or solve", l.Index, l.Cache)
		}
	}
	if assembled != 1 || solve != 9 {
		t.Errorf("%d assembled + %d solve, want 1 + 9", assembled, solve)
	}
	if n := s.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("assemblies = %d for 10 GPR variants, want exactly 1", n)
	}
	// Every index present once, each at its own GPR, sharing one key and one
	// resistance.
	for i := 0; i < 10; i++ {
		l, ok := seen[i]
		if !ok {
			t.Fatalf("missing line for scenario %d", i)
		}
		if l.ID != fmt.Sprintf("s%d", i) || l.GPR != 1000*float64(i+1) {
			t.Errorf("line %d: id %q gpr %g", i, l.ID, l.GPR)
		}
		if l.Key != seen[0].Key || l.ReqOhms != seen[0].ReqOhms {
			t.Errorf("line %d: key/Req diverge from line 0", i)
		}
		if want := l.GPR / l.ReqOhms; l.CurrentAmps != want {
			t.Errorf("line %d: currentAmps %g, want gpr/Req %g", i, l.CurrentAmps, want)
		}
	}

	// A second identical sweep is served entirely from the cache: all lines
	// "hit", no new assembly.
	code, _, resp = post(t, context.Background(), ts.URL, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("second sweep: status %d: %s", code, resp)
	}
	for _, l := range decodeSweep(t, resp) {
		if l.Cache != "hit" {
			t.Errorf("second sweep line %d: cache %q, want hit", l.Index, l.Cache)
		}
	}
	if n := s.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("assemblies = %d after cached replay, want still 1", n)
	}
}

// TestSweepMatchesSolve: /v1/sweep reports byte-identical reqOhms and
// currentAmps to /v1/solve for the same scenario, whichever ran first.
func TestSweepMatchesSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})

	code, _, resp := post(t, context.Background(), ts.URL, "/v1/sweep",
		fastSweep(20, "", [2]float64{0.0125, 10_000}, [2]float64{0.025, 10_000}))
	if code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", code, resp)
	}
	lines := decodeSweep(t, resp)
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	byIndex := map[int]SweepLine{}
	for _, l := range lines {
		byIndex[l.Index] = l
	}

	// The matching /v1/solve must be a cache hit (the sweep populated the
	// cache) and report the same numbers.
	code, hdr, solveBody := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, solveBody)
	}
	if got := hdr.Get("X-Groundd-Cache"); got != "hit" {
		t.Errorf("solve after sweep: cache %q, want hit", got)
	}
	var sr SolveResponse
	if err := json.Unmarshal(solveBody, &sr); err != nil {
		t.Fatal(err)
	}
	l := byIndex[0]
	if l.Key != sr.Key || l.ReqOhms != sr.ReqOhms || l.CurrentAmps != sr.CurrentAmps ||
		l.Elements != sr.Elements || l.DoF != sr.DoF {
		t.Errorf("sweep line %+v does not match solve %+v", l, sr)
	}
}

// TestSweepBadRequests covers the pre-stream rejection paths: they must be
// proper JSON error envelopes with 400 status, not NDJSON.
func TestSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tooMany := make([][2]float64, maxSweepScenarios+1)
	for i := range tooMany {
		tooMany[i] = [2]float64{0.01 + float64(i)*1e-6, 1}
	}
	cases := []struct {
		name, body string
	}{
		{"empty scenarios", `{"grid": {"builtin": "barbera"}, "scenarios": []}`},
		{"no grid", `{"scenarios": [{"soil": {"kind": "uniform", "gamma1": 0.02}}]}`},
		{"bad soil", fastSweep(20, "", [2]float64{-1, 1})},
		{"unknown field", `{"grid": {"builtin": "barbera"}, "scenarios": [], "bogus": 1}`},
		{"negative timeout", fastSweep(20, ` "timeoutMs": -1,`, [2]float64{0.0125, 1})},
		{"too many scenarios", fastSweep(20, "", tooMany...)},
	}
	for _, c := range cases {
		code, hdr, body := post(t, context.Background(), ts.URL, "/v1/sweep", c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, code, body)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", c.name, ct)
		}
	}
}

// TestSweepQueueFull429: a sweep arriving at a saturated queue is shed with
// 429 before any streaming starts.
func TestSweepQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	_, release := holdAssembly(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		postNoFatal(t, ctx, ts.URL, "/v1/solve", fastScenario(120, 10_000))
	}()
	waitFor(t, func() bool { return s.Counters().BusyWorkers.Load() == 1 })
	go func() {
		defer wg.Done()
		postNoFatal(t, ctx, ts.URL, "/v1/solve", fastScenario(121, 10_000))
	}()
	waitFor(t, func() bool { return s.Counters().QueueDepth.Load() == 1 })

	code, _, body := post(t, context.Background(), ts.URL, "/v1/sweep",
		fastSweep(20, "", [2]float64{0.0125, 1}))
	if code != http.StatusTooManyRequests {
		t.Errorf("sweep at full queue: status %d, want 429: %s", code, body)
	}
	if n := s.Counters().RejectedQueueFull.Load(); n != 1 {
		t.Errorf("rejectedQueueFull = %d, want 1", n)
	}
	cancel()
	release()
	wg.Wait()
}

// TestSweepDeadline504: a deadline shorter than the first assembly yields a
// clean 504 (nothing streamed yet) and the deadline counter moves. The
// assembly is held until the deadline has passed.
func TestSweepDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	entered, release := holdAssembly(t)
	releaseAfterDeadline(entered, release, 50*time.Millisecond)
	body := fastSweep(110, ` "timeoutMs": 50,`, [2]float64{0.0125, 1})
	code, _, resp := post(t, context.Background(), ts.URL, "/v1/sweep", body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, resp)
	}
	if n := s.Counters().DeadlineExceeded.Load(); n == 0 {
		t.Error("deadlineExceeded did not move")
	}
	waitFor(t, func() bool { return s.Counters().BusyWorkers.Load() == 0 })
}

// TestSweepClientCancel drains cleanly when the client disappears
// mid-sweep: the slot is released, the cancel counter moves, and no
// goroutines are left behind.
func TestSweepClientCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	entered, release := holdAssembly(t)
	go func() {
		// Cancel mid-assembly, then let the held assembly resume into the
		// cancelled context.
		<-entered
		cancel()
		time.Sleep(cancelNotice)
		release()
	}()
	body := `{
		"grid": {"rect": {"width": 115, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"seriesTol": 1e-3,
		"scenarios": [
			{"soil": {"kind": "two-layer", "gamma1": 0.005, "gamma2": 0.016, "h1": 1.0}},
			{"soil": {"kind": "two-layer", "gamma1": 0.004, "gamma2": 0.016, "h1": 1.0}}
		]
	}`
	start := time.Now()
	postNoFatal(t, ctx, ts.URL, "/v1/sweep", body)
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled sweep took %v to return", d)
	}
	waitFor(t, func() bool {
		return s.Counters().BusyWorkers.Load() == 0 && s.Counters().ClientCancelled.Load() >= 1
	})
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+10 })
	if n := s.Counters().Assemblies.Load(); n != 0 {
		t.Errorf("assemblies = %d after cancelled sweep, want 0", n)
	}
}

// TestSweepScaledTierNotCached: allowScaled is still accepted, and ignored.
// A soil with every conductivity doubled has the same unit model, so it
// streams as "solve" under the assembled scenario's key at exactly half its
// resistance, and a follow-up /v1/solve of it is an LRU hit whose body is
// byte-identical to a fresh server's.
func TestSweepScaledTierNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	code, _, resp := post(t, context.Background(), ts.URL, "/v1/sweep",
		fastSweep(20, ` "allowScaled": true,`, [2]float64{0.0125, 1}, [2]float64{0.025, 1}))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, resp)
	}
	lines := decodeSweep(t, resp)
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	byIndex := map[int]SweepLine{}
	for _, l := range lines {
		byIndex[l.Index] = l
	}
	if byIndex[0].Cache != "assembled" || byIndex[1].Cache != "solve" {
		t.Fatalf("cache tiers (%q, %q), want (assembled, solve)", byIndex[0].Cache, byIndex[1].Cache)
	}
	if byIndex[0].Key != byIndex[1].Key {
		t.Errorf("proportional soils key apart: %s vs %s", byIndex[0].Key, byIndex[1].Key)
	}
	if byIndex[0].ReqOhms != 2*byIndex[1].ReqOhms {
		t.Errorf("Req %v for doubled conductivities, want exactly half of %v", byIndex[1].ReqOhms, byIndex[0].ReqOhms)
	}
	if n := s.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("assemblies = %d, want 1", n)
	}

	doubled := `{"grid": {"rect": {"width": 20, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"soil": {"kind": "uniform", "gamma1": 0.025}, "seriesTol": 1e-3}`
	code, hdr, body := post(t, context.Background(), ts.URL, "/v1/solve", doubled)
	if code != http.StatusOK {
		t.Fatalf("follow-up solve: status %d: %s", code, body)
	}
	if got := hdr.Get("X-Groundd-Cache"); got != "hit" {
		t.Errorf("follow-up solve of the doubled soil: cache %q, want hit", got)
	}
	if n := s.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("assemblies = %d after the follow-up, want still 1", n)
	}
	_, fresh := newTestServer(t, Config{MaxConcurrent: 2})
	if _, _, want := post(t, context.Background(), fresh.URL, "/v1/solve", doubled); !bytes.Equal(body, want) {
		t.Errorf("served body differs from a fresh server's:\n%s\n%s", body, want)
	}
}

// TestSweepAssembleNanosOncePerRequest: /v1/sweep charges assembleNanos
// the engine's wall time once per request, as /v1/solve does, so the
// counter never exceeds the request's own wall time. Summing each
// assembled line's time-since-sweep-start would count the first job of a
// three-job sweep three times.
func TestSweepAssembleNanosOncePerRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	body := `{
		"grid": {"rect": {"width": 40, "height": 40, "nx": 8, "ny": 8, "depth": 0.8, "radius": 0.006, "beta": 0.3}},
		"seriesTol": 1e-5, "workers": 1,
		"scenarios": [
			{"soil": {"kind": "two-layer", "gamma1": 0.005, "gamma2": 0.016, "h1": 1.0}},
			{"soil": {"kind": "two-layer", "gamma1": 0.005, "gamma2": 0.012, "h1": 1.0}},
			{"soil": {"kind": "two-layer", "gamma1": 0.005, "gamma2": 0.008, "h1": 1.0}}
		]
	}`
	before := s.Counters().AssembleNanos.Load()
	start := time.Now()
	code, _, out := post(t, context.Background(), ts.URL, "/v1/sweep", body)
	wall := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	for _, l := range decodeSweep(t, out) {
		if l.Cache != "assembled" {
			t.Fatalf("line %+v, want three assembled jobs", l)
		}
	}
	charged := time.Duration(s.Counters().AssembleNanos.Load() - before)
	if charged <= 0 || charged > wall {
		t.Errorf("assembleNanos grew by %v for a request of %v wall time", charged, wall)
	}
}
