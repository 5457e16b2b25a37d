package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"earthing"
	"earthing/internal/geom"
	postproc "earthing/internal/post"
)

// lattice25 is a 25 m × 25 m 4 × 4 lattice in uniform soil at the given GPR,
// with extra request fields appended.
func lattice25(gpr float64, extra string) string {
	return fmt.Sprintf(`{
		"grid": {"rect": {"width": 25, "height": 25, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"soil": {"kind": "uniform", "gamma1": 0.0125},
		"seriesTol": 1e-3, "gpr": %g%s
	}`, gpr, extra)
}

const safetyCriteria = `, "criteria": {"faultDurationS": 0.5, "soilRho": 80, "surfaceRho": 3000, "surfaceThicknessM": 0.1}`

// encodeBody renders v exactly as writeJSON does.
func encodeBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPostMemoParity is the oracle for the post memo: every /v1/safety and
// /v1/raster body is byte-identical whether it was computed, served from the
// memo, or computed with caching off, at any GPR; raster bodies also equal a
// direct facade evaluation at the request GPR.
func TestPostMemoParity(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	_, off := newTestServer(t, Config{MaxConcurrent: 2, CacheEntries: -1})
	ctx := context.Background()
	requests := []struct {
		name, path, extra string
		opt               *earthing.SurfaceOptions // raster geometry for the facade oracle
		kind              string
	}{
		{"safety default", "/v1/safety", safetyCriteria, nil, ""},
		{"safety 2 m", "/v1/safety", safetyCriteria + `, "stepResM": 2`, nil, ""},
		{"potential default", "/v1/raster", ``, &earthing.SurfaceOptions{}, "potential"},
		{"potential explicit", "/v1/raster", `, "kind": "potential", "nx": 20, "ny": 12, "margin": 4.5`,
			&earthing.SurfaceOptions{NX: 20, NY: 12, Margin: 4.5}, "potential"},
		{"step default", "/v1/raster", `, "kind": "step"`, &earthing.SurfaceOptions{}, "step"},
		{"step explicit", "/v1/raster", `, "kind": "step", "nx": 9, "ny": 31, "margin": 7`,
			&earthing.SurfaceOptions{NX: 9, NY: 31, Margin: 7}, "step"},
	}
	for _, gpr := range []float64{1, 10_000, 7321.123} {
		for _, rq := range requests {
			body := lattice25(gpr, rq.extra)
			var got [3][]byte
			var how [3]string
			for i, base := range []string{ts.URL, ts.URL, off.URL} {
				code, hdr, b := post(t, ctx, base, rq.path, body)
				if code != http.StatusOK {
					t.Fatalf("%s at gpr %g: status %d: %s", rq.name, gpr, code, b)
				}
				got[i], how[i] = b, hdr.Get("X-Groundd-Post")
				if i == 1 && hdr.Get("X-Groundd-Cache-Tier") != tierLRU {
					t.Errorf("%s at gpr %g: repeat served from tier %q, want lru", rq.name, gpr, hdr.Get("X-Groundd-Cache-Tier"))
				}
			}
			if how[1] != postMemoized || how[2] != postComputed {
				t.Errorf("%s at gpr %g: X-Groundd-Post %q, want [computed|memo memo computed]", rq.name, gpr, how)
			}
			if gpr == 1 && how[0] != postComputed {
				t.Errorf("%s: first request X-Groundd-Post %q, want computed", rq.name, how[0])
			}
			for i := 1; i < 3; i++ {
				if !bytes.Equal(got[0], got[i]) {
					t.Errorf("%s at gpr %g: body %d differs from body 0:\n%s\n%s", rq.name, gpr, i, got[i], got[0])
				}
			}
			if rq.opt == nil {
				continue
			}
			var resp RasterResponse
			if err := json.Unmarshal(got[0], &resp); err != nil {
				t.Fatal(err)
			}
			unit, ok := s.cache.get(resp.Key)
			if !ok {
				t.Fatalf("%s: scenario not cached", rq.name)
			}
			scaled := *unit
			scaled.GPR = gpr
			var r *earthing.Raster
			var err error
			if rq.kind == "potential" {
				r, err = earthing.SurfacePotential(ctx, &scaled, *rq.opt)
			} else {
				r, err = earthing.StepVoltageMap(ctx, &scaled, *rq.opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := encodeBody(t, RasterResponse{
				Key: resp.Key, Kind: rq.kind, GPR: gpr,
				X0: r.X0, Y0: r.Y0, DX: r.DX, DY: r.DY, NX: r.NX, NY: r.NY, V: r.V,
			})
			if !bytes.Equal(got[0], want) {
				t.Errorf("%s at gpr %g: body differs from the direct evaluation at scale gpr", rq.name, gpr)
			}
		}
	}
	// One solve served all of it, and every repeat after the first GPR was
	// a memo hit.
	st := getStats(t, ts.URL)
	if st.Assemblies != 1 {
		t.Errorf("assemblies = %d, want 1", st.Assemblies)
	}
	if want := int64(len(requests)); st.PostMemoMisses != want || st.PostMemoHits != 5*want {
		t.Errorf("postMemoMisses/Hits = %d/%d, want %d/%d", st.PostMemoMisses, st.PostMemoHits, want, 5*want)
	}

	// Defaults are canonical: nx 0 and nx 64 (and margin 0 and 15) sample
	// the same raster, so they share one memo.
	_, hdr, b0 := post(t, ctx, ts.URL, "/v1/raster", lattice25(3, `, "nx": 0`))
	_, hdr64, b64 := post(t, ctx, ts.URL, "/v1/raster", lattice25(3, `, "nx": 64, "ny": 64, "margin": 15`))
	if hdr.Get("X-Groundd-Post") != postMemoized || hdr64.Get("X-Groundd-Post") != postMemoized || !bytes.Equal(b0, b64) {
		t.Errorf("nx 0 / nx 64: X-Groundd-Post %q / %q, bodies equal %v; want one shared memo",
			hdr.Get("X-Groundd-Post"), hdr64.Get("X-Groundd-Post"), bytes.Equal(b0, b64))
	}
	s.cache.mu.Lock()
	n := len(s.cache.items[scenarioKeyFor(t, lattice25(1, ""))].Value.(*entry).memos)
	s.cache.mu.Unlock()
	if n != len(requests) {
		t.Errorf("%d memos on the entry, want %d", n, len(requests))
	}
}

// TestWriteRasterMatchesEncoder: the streamed raster body and headers equal
// writeJSON of the scaled raster byte for byte, across encoding/json's
// exponent cutoffs and over many write chunks; a non-finite sample is a 500.
func TestWriteRasterMatchesEncoder(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	unit := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.123,
		1e-6, 9.999999e-7, -1e-7, 1e-9, 1.5e-10, 1e-300, 5e-324,
		9.99e20, 1e21, -1e21, 1e20, 1e300}
	rng := rand.New(rand.NewSource(1))
	for len(unit) < 3*rasterChunk/20 {
		unit = append(unit, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, gpr := range []float64{1, 10_000, 7321.123, 1e-3} {
		for _, n := range []int{2, 19, len(unit)} {
			resp := RasterResponse{Key: "k<&>", Kind: "step", GPR: gpr, X0: -2, Y0: 1e-7, DX: 0.25, DY: 1.0 / 3, NX: n, NY: 1}
			got := httptest.NewRecorder()
			s.writeRaster(got, tierLRU, resp, unit[:n])
			resp.V = make([]float64, n)
			for i, u := range unit[:n] {
				resp.V[i] = gpr * u
			}
			want := httptest.NewRecorder()
			s.writeJSON(want, tierLRU, resp)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("gpr %g, %d samples: status %d, body differs from writeJSON", gpr, n, got.Code)
			}
			for _, h := range []string{"Content-Type", "X-Groundd-Cache", "X-Groundd-Cache-Tier"} {
				if got.Header().Get(h) != want.Header().Get(h) {
					t.Errorf("gpr %g: %s %q, writeJSON %q", gpr, h, got.Header().Get(h), want.Header().Get(h))
				}
			}
		}
	}
	for _, tc := range []struct {
		gpr  float64
		unit []float64
	}{{1, []float64{1, math.Inf(1)}}, {1, []float64{math.NaN(), 0}}, {1e10, []float64{0, 1e300}}} {
		rec := httptest.NewRecorder()
		s.writeRaster(rec, tierLRU, RasterResponse{GPR: tc.gpr, NX: 2, NY: 1}, tc.unit)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("gpr %g, %v: status %d, want 500", tc.gpr, tc.unit, rec.Code)
		}
	}
}

// scenarioKeyFor decodes body as a Scenario and returns its cache key.
func scenarioKeyFor(t *testing.T, body string) string {
	t.Helper()
	var sc Scenario
	if err := json.Unmarshal([]byte(body), &sc); err != nil {
		t.Fatal(err)
	}
	b, err := sc.build(0)
	if err != nil {
		t.Fatal(err)
	}
	return b.key
}

// entryBytes returns the footprint charged for key's result and the total of
// its memos.
func entryBytes(t *testing.T, s *Server, key string) (fp, memos int64) {
	t.Helper()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	el, ok := s.cache.items[key]
	if !ok {
		t.Fatalf("entry %s not cached", key)
	}
	e := el.Value.(*entry)
	return e.bytes, e.charged() - e.bytes
}

// TestPostMemoByteAccounting pins the memo bytes against the cache budget,
// through /v1/stats cacheBytes: memos are charged on top of the footprint,
// refreshing a key drops its memos, a memo that would not fit the whole
// budget is never attached, and eviction refunds an entry with its memos.
func TestPostMemoByteAccounting(t *testing.T) {
	ctx := context.Background()
	const raster = `, "nx": 40, "ny": 40`

	t.Run("refresh drops memos", func(t *testing.T) {
		s, ts := newTestServer(t, Config{MaxConcurrent: 1})
		post(t, ctx, ts.URL, "/v1/raster", lattice25(1, raster))
		post(t, ctx, ts.URL, "/v1/safety", lattice25(1, safetyCriteria))
		key := scenarioKeyFor(t, lattice25(1, ""))
		fp, memos := entryBytes(t, s, key)
		if want := int64(40*40*8 + 72); memos <= want {
			t.Fatalf("memo bytes %d, want more than the raster's %d", memos, want)
		}
		if got := getStats(t, ts.URL).CacheBytes; got != fp+memos {
			t.Errorf("cacheBytes = %d, want footprint %d + memos %d", got, fp, memos)
		}
		res, _ := s.cache.get(key)
		s.cache.put(key, res)
		fp, memos = entryBytes(t, s, key)
		if memos != 0 {
			t.Errorf("memo bytes %d after refresh, want 0", memos)
		}
		if got := getStats(t, ts.URL).CacheBytes; got != fp {
			t.Errorf("cacheBytes = %d after refresh, want the footprint %d", got, fp)
		}
		if _, hdr, _ := post(t, ctx, ts.URL, "/v1/raster", lattice25(1, raster)); hdr.Get("X-Groundd-Post") != postComputed {
			t.Errorf("raster after refresh: X-Groundd-Post %q, want computed", hdr.Get("X-Groundd-Post"))
		}
	})

	t.Run("oversized memo never attached", func(t *testing.T) {
		probe, pts := newTestServer(t, Config{MaxConcurrent: 1})
		post(t, ctx, pts.URL, "/v1/solve", lattice25(1, ""))
		fp, _ := entryBytes(t, probe, scenarioKeyFor(t, lattice25(1, "")))
		// Room for the result and a 40 × 40 raster, not for a 64 × 64 one.
		const room = 16 << 10
		_, ts := newTestServer(t, Config{MaxConcurrent: 1, CacheBytes: fp + room})
		post(t, ctx, ts.URL, "/v1/solve", lattice25(1, ""))
		before := getStats(t, ts.URL).CacheBytes
		for i := 0; i < 2; i++ {
			code, hdr, b := post(t, ctx, ts.URL, "/v1/raster", lattice25(1, ""))
			if code != http.StatusOK || hdr.Get("X-Groundd-Post") != postComputed {
				t.Fatalf("64² raster %d: status %d, X-Groundd-Post %q: %.200s", i, code, hdr.Get("X-Groundd-Post"), b)
			}
		}
		if got := getStats(t, ts.URL).CacheBytes; got != before {
			t.Errorf("cacheBytes %d → %d: an over-budget memo was attached", before, got)
		}
		post(t, ctx, ts.URL, "/v1/raster", lattice25(1, raster))
		if _, hdr, _ := post(t, ctx, ts.URL, "/v1/raster", lattice25(1, raster)); hdr.Get("X-Groundd-Post") != postMemoized {
			t.Errorf("small raster repeat: X-Groundd-Post %q, want memo", hdr.Get("X-Groundd-Post"))
		}
		if st := getStats(t, ts.URL); st.CacheBytes > fp+room || st.CacheEntries != 1 {
			t.Errorf("cacheBytes %d over the budget %d, or entries %d", st.CacheBytes, fp+room, st.CacheEntries)
		}
	})

	t.Run("eviction refunds memos", func(t *testing.T) {
		s, ts := newTestServer(t, Config{MaxConcurrent: 1, CacheEntries: 1})
		post(t, ctx, ts.URL, "/v1/raster", lattice25(1, raster))
		post(t, ctx, ts.URL, "/v1/safety", lattice25(1, safetyCriteria))
		if _, memos := entryBytes(t, s, scenarioKeyFor(t, lattice25(1, ""))); memos == 0 {
			t.Fatal("no memo attached")
		}
		other := strings.Replace(lattice25(1, ""), `"width": 25`, `"width": 26`, 1)
		post(t, ctx, ts.URL, "/v1/solve", other)
		fp, memos := entryBytes(t, s, scenarioKeyFor(t, other))
		if st := getStats(t, ts.URL); st.CacheEntries != 1 || st.CacheBytes != fp || memos != 0 {
			t.Errorf("after eviction: entries %d, cacheBytes %d; want 1 entry of footprint %d", st.CacheEntries, st.CacheBytes, fp)
		}
	})
}

// TestPostMemoHitTakesNoSlot: a memo hit is answered while the only
// admission slot is taken and there is no queue, where a field sweep is shed
// with 429.
func TestPostMemoHitTakesNoSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	ctx := context.Background()
	raster := lattice25(10_000, `, "nx": 16, "ny": 16`)
	safety := lattice25(10_000, safetyCriteria)
	post(t, ctx, ts.URL, "/v1/raster", raster)
	post(t, ctx, ts.URL, "/v1/safety", safety)

	s.slots <- struct{}{} // hold the only slot
	defer func() { <-s.slots }()
	for _, rq := range [][2]string{{"/v1/raster", raster}, {"/v1/safety", safety}} {
		code, hdr, b := post(t, ctx, ts.URL, rq[0], strings.Replace(rq[1], `"gpr": 10000`, `"gpr": 20000`, 1))
		if code != http.StatusOK || hdr.Get("X-Groundd-Post") != postMemoized {
			t.Errorf("%s memo hit with the slot taken: status %d, X-Groundd-Post %q: %s", rq[0], code, hdr.Get("X-Groundd-Post"), b)
		}
	}
	if code, _, _ := post(t, ctx, ts.URL, "/v1/raster", lattice25(10_000, `, "nx": 17`)); code != http.StatusTooManyRequests {
		t.Errorf("memo miss with the slot taken: status %d, want 429", code)
	}
}

// TestPostMemoConcurrent races memo hits, misses, attachments and
// evictions: three scenarios through a two-entry cache from 12 goroutines.
// Every body must equal the one a cache-less server computes.
func TestPostMemoConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 3, QueueDepth: 64, CacheEntries: 2})
	_, off := newTestServer(t, Config{MaxConcurrent: 3, CacheEntries: -1})
	ctx := context.Background()
	type request struct{ path, body string }
	var reqs []request
	for _, width := range []string{"25", "26", "27"} {
		for _, gpr := range []float64{1, 7321.123} {
			sc := strings.Replace(lattice25(gpr, ""), `"width": 25`, `"width": `+width, 1)
			sc = strings.TrimSuffix(strings.TrimSpace(sc), "}")
			reqs = append(reqs,
				request{"/v1/raster", sc + `, "nx": 12, "ny": 12}`},
				request{"/v1/raster", sc + `, "kind": "step", "nx": 12, "ny": 12}`},
				request{"/v1/safety", sc + safetyCriteria + `, "stepResM": 2}`})
		}
	}
	want := make([][]byte, len(reqs))
	for i, rq := range reqs {
		code, _, b := post(t, ctx, off.URL, rq.path, rq.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", rq.path, code, b)
		}
		want[i] = b
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(reqs); k++ {
				i := (g*7 + k*5) % len(reqs)
				code, _, b := postNoFatal(t, ctx, ts.URL, reqs[i].path, reqs[i].body)
				if code != http.StatusOK || !bytes.Equal(b, want[i]) {
					t.Errorf("goroutine %d, request %d (%s): status %d, body differs from the cache-less one", g, i, reqs[i].path, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHostileVoltageResolution: a stepResM or voltageResM whose voltage
// raster would exceed post.MaxVoltagePoints is a typed 400, before any solve
// or allocation.
func TestHostileVoltageResolution(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	ctx := context.Background()
	cases := []struct {
		name, path, body string
	}{
		{"safety millimetre", "/v1/safety", lattice25(1, safetyCriteria+`, "stepResM": 0.001`)},
		{"safety tiny", "/v1/safety", lattice25(1, safetyCriteria+`, "stepResM": 1e-300`)},
		{"safety denormal", "/v1/safety", lattice25(1, safetyCriteria+`, "stepResM": 5e-324`)},
		{"safety just over", "/v1/safety", lattice25(1, safetyCriteria+`, "stepResM": 0.05`)},
		{"optimize millimetre", "/v1/optimize", strings.Replace(fastOptimize(""), `"voltageResM": 2.5`, `"voltageResM": 0.001`, 1)},
		{"optimize huge site", "/v1/optimize", strings.Replace(fastOptimize(""), `"width": 10, "height": 10`, `"width": 1e6, "height": 1e6`, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := post(t, ctx, ts.URL, tc.path, tc.body)
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); code != http.StatusBadRequest || err != nil || eb.Code != "bad_request" {
				t.Errorf("status %d, body %s; want a typed 400", code, body)
			}
		})
	}
	if n := s.Counters().Assemblies.Load(); n != 0 {
		t.Errorf("assemblies = %d, want 0: hostile resolutions must be refused before solving", n)
	}
	// The scenario itself is fine.
	if code, _, b := post(t, ctx, ts.URL, "/v1/safety", lattice25(1, safetyCriteria+`, "stepResM": 1`)); code != http.StatusOK {
		t.Errorf("stepResM 1: status %d: %s", code, b)
	}
}

// FuzzPostParams: raster and safety parameter validation never panics, and
// whatever it admits samples at most post.MaxVoltagePoints points.
func FuzzPostParams(f *testing.F) {
	f.Add("", 0, 0, 0.0, 0.0, 25.0, 25.0)
	f.Add("step", 64, 512, 15.0, 2.0, 25.0, 25.0)
	f.Add("potential", 513, -1, -1.0, -2.0, 1e3, 1e3)
	f.Add("aura", 1, 1, math.Inf(1), 0.001, 25.0, 25.0)
	f.Add("potential", 512, 512, 1e308, 5e-324, 1e308, 1e-308)
	f.Add("step", 0, 0, math.NaN(), math.NaN(), math.Inf(1), 0.0)
	f.Fuzz(func(t *testing.T, kind string, nx, ny int, margin, stepRes, w, h float64) {
		bounds := geom.AABB{Max: geom.V(w, h, 0)}
		if pk, err := rasterKey(bounds, kind, nx, ny, margin); err == nil {
			if pk.nx < 2 || pk.ny < 2 || pk.nx*pk.ny > postproc.MaxVoltagePoints || !(pk.margin >= 0) ||
				math.IsInf((w+pk.margin)+pk.margin, 0) || math.IsInf((h+pk.margin)+pk.margin, 0) {
				t.Errorf("rasterKey(%g × %g, %q, %d, %d, %g) admitted %+v", w, h, kind, nx, ny, margin, pk)
			}
		}
		pk, err := safetyKey(bounds, stepRes)
		if err != nil {
			var rse *postproc.RasterSizeError
			if !errors.As(err, &rse) && !(stepRes < 0) {
				t.Errorf("safetyKey(%g × %g, %g): untyped error %v", w, h, stepRes, err)
			}
			return
		}
		p, err := postproc.PlanVoltageRaster(bounds, pk.stepRes, postproc.MaxVoltagePoints)
		if err != nil || p.StepRes != pk.stepRes || p.NX*p.NY > postproc.MaxVoltagePoints {
			t.Errorf("safetyKey(%g × %g, %g) admitted %+v as %+v (%v)", w, h, stepRes, pk, p, err)
		}
	})
}
