package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// fastOptimize builds a small /v1/optimize body: a 10 m × 10 m site in
// uniform soil searched over a few dozen candidates with a loose series
// tolerance — the tests pin service mechanics, not physical accuracy.
func fastOptimize(extra string) string {
	return fmt.Sprintf(`{
		"soil": {"kind": "uniform", "gamma1": 0.02},
		"seriesTol": 1e-2, "rodElements": 2,%s
		"width": 10, "height": 10,
		"faultCurrentA": 100,
		"criteria": {"faultDurationS": 0.5, "soilRho": 50},
		"minLines": 2, "maxLines": 4, "maxRods": 2,
		"minDepth": 0.5, "maxDepth": 0.7, "depthStep": 0.1,
		"voltageResM": 2.5,
		"starts": 2, "maxEvals": 120
	}`, extra)
}

// decodeOptimize parses an NDJSON /v1/optimize body into lines.
func decodeOptimize(t *testing.T, body []byte) []OptimizeLine {
	t.Helper()
	var lines []OptimizeLine
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var l OptimizeLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("bad NDJSON line: %v\nbody: %s", err, body)
		}
		lines = append(lines, l)
	}
	return lines
}

// TestOptimizeEndpoint: the happy path streams improving designs and closes
// with a final summary line whose best design is feasible.
func TestOptimizeEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	code, hdr, body := post(t, context.Background(), ts.URL, "/v1/optimize", fastOptimize(""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := decodeOptimize(t, body)
	if len(lines) < 2 {
		t.Fatalf("%d lines, want at least one progress + the final line: %s", len(lines), body)
	}
	final := lines[len(lines)-1]
	if !final.Final || final.Stats == nil || final.Error != "" {
		t.Fatalf("terminal line %+v, want final summary without error", final)
	}
	if final.Best == nil || !final.Best.Feasible || !final.Best.Verdict.Safe() {
		t.Fatalf("final best %+v, want a feasible design", final.Best)
	}
	lastGen := 0
	for _, l := range lines[:len(lines)-1] {
		if l.Final || l.Best == nil {
			t.Fatalf("progress line %+v malformed", l)
		}
		if l.Generation <= lastGen {
			t.Errorf("generations not strictly increasing: %d after %d", l.Generation, lastGen)
		}
		lastGen = l.Generation
	}
	// The final best is the last streamed best.
	last := lines[len(lines)-2].Best
	if last.Objective != final.Best.Objective || last.NX != final.Best.NX {
		t.Errorf("final best %+v differs from last progress %+v", final.Best, last)
	}
	// Stats accounting and the per-server optimize counters.
	st := final.Stats
	if st.Requested != st.Evaluated+st.CacheHits || st.Evaluated == 0 {
		t.Errorf("stats accounting broken: %+v", st)
	}
	snap := getStats(t, ts.URL)
	if snap.OptimizeRequests != 1 {
		t.Errorf("optimizeRequests = %d, want 1", snap.OptimizeRequests)
	}
	if snap.OptimizeCandidates != int64(st.Evaluated) {
		t.Errorf("optimizeCandidates = %d, want %d", snap.OptimizeCandidates, st.Evaluated)
	}
	if got := s.Counters().OptimizeNanos.Load(); got <= 0 {
		t.Errorf("optimizeNanos = %d, want > 0", got)
	}
}

// TestOptimizeDeterministicAcrossWorkersHTTP pins the acceptance contract at
// the service boundary: the whole NDJSON stream — every progress line, the
// final design, the counters — is byte-identical at any worker count for a
// fixed seed.
func TestOptimizeDeterministicAcrossWorkersHTTP(t *testing.T) {
	run := func(workers int) []byte {
		_, ts := newTestServer(t, Config{MaxConcurrent: 2})
		code, _, body := post(t, context.Background(), ts.URL, "/v1/optimize",
			fastOptimize(fmt.Sprintf(` "workers": %d,`, workers)))
		if code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, code, body)
		}
		return body
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); !bytes.Equal(got, base) {
			t.Errorf("workers=%d stream differs from workers=1:\n%s\nvs\n%s", w, got, base)
		}
	}
}

// TestOptimizeNoFeasible: an impossible fault current still streams the
// least-violating designs and closes with the typed no_feasible code on the
// terminal line (the stream already committed status 200).
func TestOptimizeNoFeasible(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	body := strings.Replace(fastOptimize(""), `"faultCurrentA": 100`, `"faultCurrentA": 1e6`, 1)
	code, _, resp := post(t, context.Background(), ts.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, resp)
	}
	lines := decodeOptimize(t, resp)
	final := lines[len(lines)-1]
	if !final.Final || final.Code != "no_feasible" || final.Error == "" {
		t.Fatalf("terminal line %+v, want final with code no_feasible", final)
	}
	if final.Best == nil || final.Best.Feasible {
		t.Errorf("final best %+v, want the least-violating infeasible design", final.Best)
	}
	if final.Stats == nil || final.Stats.Evaluated == 0 {
		t.Errorf("terminal stats %+v, want non-empty", final.Stats)
	}
}

// TestOptimizeBadRequests covers the pre-stream 400 paths of the unified
// envelope: they must be typed JSON error envelopes, never NDJSON.
func TestOptimizeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"grid present", strings.Replace(fastOptimize(""), `"soil"`, `"grid": {"builtin": "barbera"}, "soil"`, 1)},
		{"gpr present", strings.Replace(fastOptimize(""), `"soil"`, `"gpr": 100, "soil"`, 1)},
		{"zero width", strings.Replace(fastOptimize(""), `"width": 10`, `"width": 0`, 1)},
		{"negative fault current", strings.Replace(fastOptimize(""), `"faultCurrentA": 100`, `"faultCurrentA": -5`, 1)},
		{"bad soil", strings.Replace(fastOptimize(""), `"gamma1": 0.02`, `"gamma1": -1`, 1)},
		{"no criteria", strings.Replace(fastOptimize(""), `"faultDurationS": 0.5, `, ``, 1)},
		{"bad series tol", strings.Replace(fastOptimize(""), `"seriesTol": 1e-2`, `"seriesTol": 2`, 1)},
		{"too many starts", strings.Replace(fastOptimize(""), `"starts": 2`, `"starts": 99`, 1)},
		{"over eval budget", strings.Replace(fastOptimize(""), `"maxEvals": 120`, `"maxEvals": 99999`, 1)},
		{"negative depth", strings.Replace(fastOptimize(""), `"minDepth": 0.5`, `"minDepth": -1`, 1)},
		{"unknown field", strings.Replace(fastOptimize(""), `"width": 10`, `"width": 10, "bogus": 1`, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, hdr, body := post(t, context.Background(), ts.URL, "/v1/optimize", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, body)
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not the typed envelope: %v: %s", err, body)
			}
			if eb.Code != "bad_request" || eb.Message == "" {
				t.Errorf("error body %+v, want code bad_request with a message", eb)
			}
		})
	}
}

// TestOptimizeDeadline504: a deadline far shorter than the search surfaces
// the typed deadline_exceeded error — pre-stream as a 504 envelope when the
// budget dies before the first generation, or as the terminal NDJSON error
// line when an early generation already committed the 200.
func TestOptimizeDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	body := strings.Replace(fastOptimize(""), `"width"`, `"timeoutMs": 1, "width"`, 1)
	// A 0.1 m voltage raster makes every candidate outlast the 1 ms budget;
	// at 2.5 m the whole search sometimes finished inside it.
	body = strings.Replace(body, `"voltageResM": 2.5`, `"voltageResM": 0.1`, 1)
	code, _, resp := post(t, context.Background(), ts.URL, "/v1/optimize", body)
	switch code {
	case http.StatusGatewayTimeout:
		var eb ErrorBody
		if err := json.Unmarshal(resp, &eb); err != nil || eb.Code != "deadline_exceeded" {
			t.Errorf("error body %s, want typed deadline_exceeded envelope (err %v)", resp, err)
		}
	case http.StatusOK:
		lines := decodeOptimize(t, resp)
		final := lines[len(lines)-1]
		if !final.Final || final.Code != "deadline_exceeded" || final.Error == "" {
			t.Errorf("terminal line %+v, want deadline_exceeded error line", final)
		}
	default:
		t.Fatalf("status %d, want 504 or mid-stream 200: %s", code, resp)
	}
	if n := s.Counters().DeadlineExceeded.Load(); n != 1 {
		t.Errorf("deadlineExceeded = %d, want 1", n)
	}
	waitFor(t, func() bool { return s.Counters().BusyWorkers.Load() == 0 })
}

// TestOptimizeQueueFull429: an optimize arriving at a saturated queue is shed
// pre-stream with 429, a Retry-After header and the typed queue_full body.
func TestOptimizeQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		postNoFatal(t, ctx, ts.URL, "/v1/solve", slowScenario(130))
	}()
	waitFor(t, func() bool { return s.Counters().BusyWorkers.Load() == 1 })
	go func() {
		defer wg.Done()
		postNoFatal(t, ctx, ts.URL, "/v1/solve", slowScenario(131))
	}()
	waitFor(t, func() bool { return s.Counters().QueueDepth.Load() == 1 })

	code, hdr, body := post(t, context.Background(), ts.URL, "/v1/optimize", fastOptimize(""))
	if code != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response lacks a Retry-After header")
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not the typed envelope: %v: %s", err, body)
	}
	if eb.Code != "queue_full" || eb.RetryAfterS < 1 {
		t.Errorf("error body %+v, want code queue_full with retry_after ≥ 1", eb)
	}
	cancel()
	wg.Wait()
}

// TestTypedErrorBodyEveryEndpoint: all five /v1/* endpoints emit the same
// {code, message} envelope on a malformed body.
func TestTypedErrorBodyEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/solve", "/v1/sweep", "/v1/raster", "/v1/safety", "/v1/optimize"} {
		code, _, body := post(t, context.Background(), ts.URL, path, `{"bogus":`)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Errorf("%s: error body is not the typed envelope: %v: %s", path, err, body)
			continue
		}
		if eb.Code != "bad_request" || eb.Message == "" {
			t.Errorf("%s: error body %+v, want code bad_request with a message", path, eb)
		}
	}
	// Draining responses carry the draining code and a retry hint.
	s2, ts2 := newTestServer(t, Config{})
	s2.SetDraining(true)
	code, _, body := post(t, context.Background(), ts2.URL, "/v1/solve", fastScenario(20, 1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503: %s", code, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "draining" || eb.RetryAfterS < 1 {
		t.Errorf("draining body %s, want typed draining envelope with retry_after (err %v)", body, err)
	}
}

// TestSweepEnvelopeSoilDefault: the unified envelope lets a sweep name its
// soil once at the top level; scenarios that omit theirs inherit it, and the
// results are identical to the legacy per-scenario form.
func TestSweepEnvelopeSoilDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	envelope := `{
		"grid": {"rect": {"width": 20, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"soil": {"kind": "uniform", "gamma1": 0.0125},
		"seriesTol": 1e-3,
		"scenarios": [{"id": "a", "gpr": 1000}, {"id": "b", "gpr": 2000}]
	}`
	code, _, resp := post(t, context.Background(), ts.URL, "/v1/sweep", envelope)
	if code != http.StatusOK {
		t.Fatalf("envelope sweep: status %d: %s", code, resp)
	}
	lines := decodeSweep(t, resp)
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2: %s", len(lines), resp)
	}
	for _, l := range lines {
		if l.Error != "" || l.ReqOhms <= 0 {
			t.Errorf("envelope sweep line %+v", l)
		}
	}
	// The legacy flattened form produces the same numbers (fresh server so
	// both sweeps assemble cold).
	_, ts2 := newTestServer(t, Config{MaxConcurrent: 2})
	legacy := fastSweep(20, "", [2]float64{0.0125, 1000}, [2]float64{0.0125, 2000})
	code, _, resp2 := post(t, context.Background(), ts2.URL, "/v1/sweep", legacy)
	if code != http.StatusOK {
		t.Fatalf("legacy sweep: status %d: %s", code, resp2)
	}
	legacyLines := decodeSweep(t, resp2)
	for i := range lines {
		if lines[i].ReqOhms != legacyLines[i].ReqOhms || lines[i].Key != legacyLines[i].Key ||
			lines[i].GPR != legacyLines[i].GPR {
			t.Errorf("envelope line %+v != legacy line %+v", lines[i], legacyLines[i])
		}
	}
}
