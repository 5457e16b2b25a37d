package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"earthing/internal/cluster"
	"earthing/internal/faultinject"
	"earthing/internal/store"
)

// fastFleetConfig tunes the fleet knobs down to test cadence: quick attempts,
// a tight hard deadline, an aggressive breaker and a fast prober.
func fastFleetConfig(nodeID string, members []cluster.Member) *FleetConfig {
	return &FleetConfig{
		NodeID:           nodeID,
		Members:          members,
		FetchTimeout:     200 * time.Millisecond,
		PeerDeadline:     600 * time.Millisecond,
		RetryBase:        10 * time.Millisecond,
		ProbeInterval:    25 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	}
}

// startFleet brings up n groundd nodes in one process, each listening on its
// own loopback port, all sharing one ring membership. The listeners exist
// before the servers so every node knows every URL at construction time.
func startFleet(t *testing.T, n int, mkCfg func(i int) Config) ([]*Server, []*httptest.Server, []cluster.Member) {
	t.Helper()
	hts := make([]*httptest.Server, n)
	members := make([]cluster.Member, n)
	for i := range hts {
		hts[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		members[i] = cluster.Member{
			ID:  fmt.Sprintf("node%d", i),
			URL: "http://" + hts[i].Listener.Addr().String(),
		}
	}
	srvs := make([]*Server, n)
	for i := range srvs {
		cfg := mkCfg(i)
		cfg.Fleet = fastFleetConfig(members[i].ID, members)
		s, err := NewFleet(cfg)
		if err != nil {
			t.Fatalf("NewFleet(node%d): %v", i, err)
		}
		srvs[i] = s
		hts[i].Config.Handler = s
		hts[i].Start()
		t.Cleanup(func() { s.Close() })
		t.Cleanup(hts[i].Close)
	}
	return srvs, hts, members
}

// scenarioOwnedBy walks rect widths until it finds a fast scenario whose ring
// owner is the wanted node, returning the request body and the key.
func scenarioOwnedBy(t *testing.T, s *Server, owner string, after float64) (body string, key string, width float64) {
	t.Helper()
	for w := after + 2; w < after+400; w += 2 {
		sc := Scenario{
			Grid: GridSpec{Rect: &RectSpec{
				Width: w, Height: 20, NX: 4, NY: 4, Depth: 0.8, Radius: 0.006,
			}},
			Soil:      SoilSpec{Kind: "uniform", Gamma1: 0.0125},
			SeriesTol: 1e-3,
		}
		b, err := sc.build(0)
		if err != nil {
			t.Fatal(err)
		}
		if s.fleet.ring.Owner(b.key) == owner {
			return fastScenario(w, 10_000), b.key, w
		}
	}
	t.Fatal("no scenario owned by " + owner + " within the search range")
	return "", "", 0
}

// waitReady polls /readyz until it reports 200 or the deadline passes.
func waitReady(t *testing.T, base string, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// TestStoreWarmStartAcrossRestart is the durability acceptance check: solve,
// restart against the same store directory, and the first repetition of the
// scenario is served as a cache hit from the store tier — byte-identical
// body, zero assemblies.
func TestStoreWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{MaxConcurrent: 2, Store: st})
	ts1 := httptest.NewServer(s1)
	waitReady(t, ts1.URL, 2*time.Second)

	code, hdr, first := post(t, context.Background(), ts1.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, first)
	}
	if hdr.Get("X-Groundd-Cache") != "miss" {
		t.Fatalf("first solve should be a cold miss")
	}
	ts1.Close()
	if err := s1.Close(); err != nil { // flushes the write-behind queue
		t.Fatalf("close: %v", err)
	}

	// "Redeploy": a fresh process opens the same directory.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{MaxConcurrent: 2, Store: st2})
	t.Cleanup(func() { s2.Close() })
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	waitReady(t, ts2.URL, 2*time.Second)

	code, hdr, warm := post(t, context.Background(), ts2.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("warm solve: status %d: %s", code, warm)
	}
	if got := hdr.Get("X-Groundd-Cache"); got != "hit" {
		t.Errorf("warm-start disposition = %q, want hit", got)
	}
	if got := hdr.Get("X-Groundd-Cache-Tier"); got != tierStore {
		t.Errorf("warm-start tier = %q, want %q", got, tierStore)
	}
	if !bytes.Equal(first, warm) {
		t.Errorf("rehydrated body differs from the original solve:\n%s\n%s", first, warm)
	}
	if n := s2.Counters().Assemblies.Load(); n != 0 {
		t.Errorf("assemblies = %d after warm-start hit, want 0", n)
	}
	if st := getStats(t, ts2.URL); st.StoreHits != 1 || st.StoreRecords == 0 {
		t.Errorf("stats = %+v, want storeHits=1 and storeRecords>0", st)
	}
}

// TestStoreCorruptTailWarmStart: a snapshot whose tail was damaged on disk
// still warm-starts — the corrupt tail is skipped and counted, the intact
// prefix serves hits.
func TestStoreCorruptTailWarmStart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{MaxConcurrent: 2, Store: st})
	ts1 := httptest.NewServer(s1)
	waitReady(t, ts1.URL, 2*time.Second)
	code, _, first := post(t, context.Background(), ts1.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("solve 1: status %d", code)
	}
	if code, _, _ := post(t, context.Background(), ts1.URL, "/v1/solve", fastScenario(22, 10_000)); code != http.StatusOK {
		t.Fatalf("solve 2: status %d", code)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the newest segment's tail: the second record decodes no more,
	// the first must survive.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{MaxConcurrent: 2, Store: st2})
	t.Cleanup(func() { s2.Close() })
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	waitReady(t, ts2.URL, 2*time.Second)

	stats := getStats(t, ts2.URL)
	if stats.StoreSkipped == 0 {
		t.Errorf("storeSkippedRecords = 0 after corrupting the tail, want > 0")
	}
	code, hdr, warm := post(t, context.Background(), ts2.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("warm solve: status %d: %s", code, warm)
	}
	if hdr.Get("X-Groundd-Cache") != "hit" || !bytes.Equal(first, warm) {
		t.Errorf("intact prefix record did not serve an identical warm hit (disposition %q)",
			hdr.Get("X-Groundd-Cache"))
	}
}

// TestReadyzDuringReplay: a node mid-replay answers 503 on /readyz (load
// balancers must not route to it) and on the internal peer API, then flips
// ready when replay completes.
func TestReadyzDuringReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Append(store.Record{Key: fmt.Sprintf("k%d", i), Sigma: []float64{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Each replayed record costs 40 ms: a deterministic ~200 ms window in
	// which the node is up but not ready.
	defer faultinject.Set(faultinject.StoreRead, faultinject.Delay(40*time.Millisecond))()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxConcurrent: 2, Store: st2})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body[:n]), "replaying") {
		t.Errorf("/readyz mid-replay = %d %q, want 503 replaying", resp.StatusCode, body[:n])
	}
	resp, err = http.Get(ts.URL + "/internal/v1/entry?key=k0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("internal entry mid-replay = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/internal/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("internal ping mid-replay = %d, want 503", resp.StatusCode)
	}

	waitReady(t, ts.URL, 5*time.Second)
	if st := getStats(t, ts.URL); st.StoreRecords != 5 {
		t.Errorf("storeRecords = %d after replay, want 5", st.StoreRecords)
	}
}

// TestClusterPeerHit: a scenario solved on its ring owner is served to the
// other node over the internal API — checksum-verified, byte-identical,
// no local assembly.
func TestClusterPeerHit(t *testing.T) {
	srvs, hts, _ := startFleet(t, 2, func(int) Config { return Config{MaxConcurrent: 2} })
	a, b := srvs[0], srvs[1]
	tsA, tsB := hts[0], hts[1]

	body, _, _ := scenarioOwnedBy(t, a, "node1", 20)
	code, _, owned := post(t, context.Background(), tsB.URL, "/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("owner solve: status %d: %s", code, owned)
	}

	code, hdr, fetched := post(t, context.Background(), tsA.URL, "/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("peer-served solve: status %d: %s", code, fetched)
	}
	if got := hdr.Get("X-Groundd-Cache"); got != "hit" {
		t.Errorf("peer serve disposition = %q, want hit", got)
	}
	if got := hdr.Get("X-Groundd-Cache-Tier"); got != tierPeer {
		t.Errorf("peer serve tier = %q, want %q", got, tierPeer)
	}
	if !bytes.Equal(owned, fetched) {
		t.Errorf("peer-served body differs from the owner's:\n%s\n%s", owned, fetched)
	}
	if n := a.Counters().Assemblies.Load(); n != 0 {
		t.Errorf("requester assemblies = %d, want 0 (the owner solved it)", n)
	}
	if n := a.Counters().PeerHits.Load(); n != 1 {
		t.Errorf("peerHits = %d, want 1", n)
	}
	if n := b.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("owner assemblies = %d, want 1", n)
	}
}

// TestClusterOwnerMissFallback: a healthy owner that has never solved the
// scenario answers a clean 404; the requester solves locally with no breaker
// penalty and no retry.
func TestClusterOwnerMissFallback(t *testing.T) {
	srvs, hts, _ := startFleet(t, 2, func(int) Config { return Config{MaxConcurrent: 2} })
	a := srvs[0]

	body, _, _ := scenarioOwnedBy(t, a, "node1", 20)
	code, hdr, got := post(t, context.Background(), hts[0].URL, "/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, got)
	}
	if hdr.Get("X-Groundd-Cache") != "miss" || hdr.Get("X-Groundd-Cache-Tier") != tierSolve {
		t.Errorf("clean owner miss should fall to a local cold solve, got %q/%q",
			hdr.Get("X-Groundd-Cache"), hdr.Get("X-Groundd-Cache-Tier"))
	}
	if n := a.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("assemblies = %d, want 1", n)
	}
	if n := a.Counters().PeerFallbacks.Load(); n != 0 {
		t.Errorf("peerFallbacks = %d on a clean miss, want 0", n)
	}
	if n := a.Counters().PeerPoisoned.Load(); n != 0 {
		t.Errorf("peerPoisoned = %d, want 0", n)
	}
	if n := a.fleet.openBreakers(); n != 0 {
		t.Errorf("open breakers = %d after a clean miss, want 0", n)
	}
}

// sweepVariantsOwnedBy searches two-layer variants of the width-20 fast grid,
// γ₂/γ₁ ratios apart (uniform soils of different γ share one key), until n
// of them route to the wanted ring owner.
func sweepVariantsOwnedBy(t *testing.T, s *Server, owner string, n int) []SoilSpec {
	t.Helper()
	var out []SoilSpec
	for g := 0.013; len(out) < n && g < 0.0525; g += 0.0001 {
		sc := Scenario{
			Grid: GridSpec{Rect: &RectSpec{
				Width: 20, Height: 20, NX: 4, NY: 4, Depth: 0.8, Radius: 0.006,
			}},
			Soil:      SoilSpec{Kind: "two-layer", Gamma1: 0.0125, Gamma2: g, H1: 5},
			SeriesTol: 1e-3,
		}
		b, err := sc.build(0)
		if err != nil {
			t.Fatal(err)
		}
		if s.fleet.ring.Owner(b.key) == owner {
			out = append(out, sc.Soil)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d of %d variants owned by %s", len(out), n, owner)
	}
	return out
}

// solutionFields strips a sweep's NDJSON output down to its deterministic
// solution content (drops the per-run timing fields), keyed by line index.
func solutionFields(t *testing.T, out []byte) map[int]SweepLine {
	t.Helper()
	lines := make(map[int]SweepLine)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var sl SweepLine
		if err := json.Unmarshal([]byte(line), &sl); err != nil {
			t.Fatalf("bad sweep line %q: %v", line, err)
		}
		if sl.Error != "" {
			t.Errorf("sweep line %d failed: %s", sl.Index, sl.Error)
		}
		sl.AssembleMs, sl.SolveMs, sl.WallMs, sl.Cache = 0, 0, 0, ""
		lines[sl.Index] = sl
	}
	return lines
}

// TestChaosClusterPeerDeathMidSweep kills the owning node, then drives a
// sweep whose scenarios all route to the corpse: every peer consult times
// out or is breaker-denied mid-sweep, every line still succeeds as a local
// solve, the dead peer's breaker opens, and both the sweep solutions and
// subsequent solve bodies are bit-identical to a single-node control run.
func TestChaosClusterPeerDeathMidSweep(t *testing.T) {
	srvs, hts, _ := startFleet(t, 2, func(int) Config { return Config{MaxConcurrent: 4} })
	a := srvs[0]

	// A standalone control node: the answers a healthy solo groundd serves.
	_, control := newTestServer(t, Config{MaxConcurrent: 4})

	soils := sweepVariantsOwnedBy(t, a, "node1", 3)
	var specs []string
	for _, soil := range soils {
		specs = append(specs, fmt.Sprintf(`{"soil": {"kind": "two-layer", "gamma1": %g, "gamma2": %g, "h1": %g}}`,
			soil.Gamma1, soil.Gamma2, soil.H1))
	}
	sweep := fmt.Sprintf(`{
		"grid": {"rect": {"width": 20, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"seriesTol": 1e-3, "gpr": 10000,
		"scenarios": [%s]
	}`, strings.Join(specs, ","))

	// Node death: the owner disappears before the burst it owns.
	hts[1].Close()

	code, _, out := post(t, context.Background(), hts[0].URL, "/v1/sweep", sweep)
	if code != http.StatusOK {
		t.Fatalf("sweep against dead owner: status %d: %s", code, out)
	}
	code, _, ref := post(t, context.Background(), control.URL, "/v1/sweep", sweep)
	if code != http.StatusOK {
		t.Fatalf("control sweep: status %d", code)
	}
	got, want := solutionFields(t, out), solutionFields(t, ref)
	if len(got) != len(soils) {
		t.Fatalf("sweep produced %d lines, want %d", len(got), len(soils))
	}
	for i, w := range want {
		if g := got[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("sweep line %d solution differs from single-node control:\ngot  %+v\nwant %+v", i, g, w)
		}
	}
	if n := a.Counters().PeerFallbacks.Load(); n == 0 {
		t.Error("peerFallbacks = 0 after a dead owner, want > 0")
	}
	if n := a.fleet.openBreakers(); n != 1 {
		t.Errorf("open breakers = %d after repeated peer failures, want 1", n)
	}

	// Solves owned by the corpse keep degrading to bit-identical local
	// answers while the breaker holds the route closed.
	body, _, _ := scenarioOwnedBy(t, a, "node1", 20)
	code, _, refBody := post(t, context.Background(), control.URL, "/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("control solve: status %d", code)
	}
	code, hdr, gotBody := post(t, context.Background(), hts[0].URL, "/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("solve against dead owner: status %d: %s", code, gotBody)
	}
	if hdr.Get("X-Groundd-Cache-Tier") != tierSolve {
		t.Errorf("tier = %q, want local solve", hdr.Get("X-Groundd-Cache-Tier"))
	}
	if !bytes.Equal(refBody, gotBody) {
		t.Errorf("degraded body differs from single-node control:\n%s\n%s", refBody, gotBody)
	}
}

// TestChaosClusterPoisonedPeer: an owner answering with corrupted bytes is
// detected by checksum verification, quarantined on the spot, and recovered
// by the half-open prober once it behaves again — with every response along
// the way still correct.
func TestChaosClusterPoisonedPeer(t *testing.T) {
	srvs, hts, _ := startFleet(t, 2, func(int) Config { return Config{MaxConcurrent: 2} })
	a := srvs[0]
	tsA, tsB := hts[0], hts[1]

	body, _, width := scenarioOwnedBy(t, a, "node1", 20)
	code, _, owned := post(t, context.Background(), tsB.URL, "/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("owner solve: status %d", code)
	}

	// Poison the owner's wire responses.
	restore := faultinject.Set(faultinject.ClusterPeerRespond, faultinject.PoisonNaN())

	code, hdr, got := post(t, context.Background(), tsA.URL, "/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("solve via poisoned owner: status %d: %s", code, got)
	}
	if hdr.Get("X-Groundd-Cache-Tier") != tierSolve {
		t.Errorf("poisoned fetch should degrade to a local solve, got tier %q",
			hdr.Get("X-Groundd-Cache-Tier"))
	}
	if !bytes.Equal(owned, got) {
		t.Errorf("degraded body differs from the owner's healthy solve")
	}
	if n := a.Counters().PeerPoisoned.Load(); n != 1 {
		t.Errorf("peerPoisoned = %d, want 1", n)
	}
	if n := a.fleet.openBreakers(); n != 1 {
		t.Errorf("open breakers = %d after poison, want 1 (instant quarantine)", n)
	}

	// The owner heals; the prober must notice and close the breaker.
	restore()
	deadline := time.Now().Add(5 * time.Second)
	for a.fleet.openBreakers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered via half-open probe")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Back in service: a fresh scenario owned by node1 serves over the peer
	// tier again.
	body2, _, _ := scenarioOwnedBy(t, a, "node1", width)
	if code, _, _ := post(t, context.Background(), tsB.URL, "/v1/solve", body2); code != http.StatusOK {
		t.Fatalf("owner solve 2: status %d", code)
	}
	code, hdr, _ = post(t, context.Background(), tsA.URL, "/v1/solve", body2)
	if code != http.StatusOK || hdr.Get("X-Groundd-Cache-Tier") != tierPeer {
		t.Errorf("post-recovery solve = %d tier %q, want 200 via peer tier",
			code, hdr.Get("X-Groundd-Cache-Tier"))
	}
}

// TestChaosStoreDiskFullWrites: every disk append fails (ENOSPC), yet
// requests keep succeeding — the record survives in memory, the failure is
// counted, and nothing blocks.
func TestChaosStoreDiskFullWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Set(faultinject.StoreWrite, faultinject.PoisonNaN())()

	s := New(Config{MaxConcurrent: 2, Store: st})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	waitReady(t, ts.URL, 2*time.Second)

	code, _, first := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("solve with full disk: status %d: %s", code, first)
	}
	st.Flush()
	if stats := st.Stats(); stats.WriteErrors == 0 {
		t.Errorf("writeErrors = 0 with every disk append failing, want > 0")
	}
	// The in-memory index still serves the record (e.g. to peers).
	if _, ok := st.Lookup(scenarioKeyOf(t, 20)); !ok {
		t.Error("record lost from the in-memory index on disk-write failure")
	}
	code, hdr, warm := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK || hdr.Get("X-Groundd-Cache") != "hit" {
		t.Errorf("repeat solve = %d %q, want 200 hit", code, hdr.Get("X-Groundd-Cache"))
	}
	if !bytes.Equal(first, warm) {
		t.Error("repeat body differs under disk-write failures")
	}
}

// scenarioKeyOf computes the canonical key of fastScenario(width, ·).
func scenarioKeyOf(t *testing.T, width float64) string {
	t.Helper()
	sc := Scenario{
		Grid: GridSpec{Rect: &RectSpec{
			Width: width, Height: 20, NX: 4, NY: 4, Depth: 0.8, Radius: 0.006,
		}},
		Soil:      SoilSpec{Kind: "uniform", Gamma1: 0.0125},
		SeriesTol: 1e-3,
	}
	b, err := sc.build(0)
	if err != nil {
		t.Fatal(err)
	}
	return b.key
}

// TestCacheByteEviction pins the resident-byte accounting: inserts charge the
// footprint estimate, evictions refund it exactly, and an entry larger than
// the whole budget is never admitted.
func TestCacheByteEviction(t *testing.T) {
	// nil results carry the fixed 256-byte floor, making arithmetic exact.
	c := newLRUCache(10, 600)
	c.put("a", nil)
	c.put("b", nil)
	if got := c.bytes(); got != 512 {
		t.Fatalf("resident = %d after two inserts, want 512", got)
	}
	c.put("c", nil) // 768 > 600: evicts the LRU entry "a"
	if got := c.bytes(); got != 512 {
		t.Errorf("resident = %d after byte-bound eviction, want 512", got)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	if _, ok := c.get("a"); ok {
		t.Error("LRU entry survived the byte bound")
	}
	// Refreshing an entry must not double-charge.
	c.put("b", nil)
	if got := c.bytes(); got != 512 {
		t.Errorf("resident = %d after refresh, want 512 (no double charge)", got)
	}
	// An entry bigger than the whole budget is refused outright.
	tiny := newLRUCache(10, 100)
	tiny.put("x", nil)
	if tiny.len() != 0 || tiny.bytes() != 0 {
		t.Errorf("oversized entry admitted: len=%d bytes=%d", tiny.len(), tiny.bytes())
	}
}

// TestServerCloseIdempotent: Close is safe to call twice and stops the
// background goroutines (the -race runs of this file double as the leak
// check — a live prober or replay goroutine would trip the test runner).
func TestServerCloseIdempotent(t *testing.T) {
	hts := httptest.NewUnstartedServer(http.NotFoundHandler())
	t.Cleanup(hts.Close)
	members := []cluster.Member{
		{ID: "node0"},
		{ID: "node1", URL: "http://" + hts.Listener.Addr().String()},
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFleet(Config{Store: st, Fleet: fastFleetConfig("node0", members)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// proportionalScenario is a two-layer fast scenario with both conductivities
// multiplied by scale; scales that are powers of two keep the γ₂/γ₁ ratio
// bit-equal, so every scale shares one unit model and one key.
func proportionalScenario(width, scale float64) string {
	return fmt.Sprintf(`{
		"grid": {"rect": {"width": %g, "height": 20, "nx": 4, "ny": 4, "depth": 0.8, "radius": 0.006}},
		"soil": {"kind": "two-layer", "gamma1": %g, "gamma2": %g, "h1": 1},
		"seriesTol": 1e-3, "gpr": 10000
	}`, width, 0.005*scale, 0.016*scale)
}

// TestProportionalSoilEveryRung: a soil with every conductivity doubled (s·M)
// is served from M's solution on every rung — the LRU, the durable store
// after a restart and the ring owner — with no assembly, and each body is
// byte-identical to a fresh server's body for s·M.
func TestProportionalSoilEveryRung(t *testing.T) {
	ctx := context.Background()
	solve := func(base, body string) (string, []byte) {
		t.Helper()
		code, hdr, out := post(t, ctx, base, "/v1/solve", body)
		if code != http.StatusOK {
			t.Fatalf("solve: status %d: %s", code, out)
		}
		return hdr.Get("X-Groundd-Cache-Tier"), out
	}
	check := func(rung, tier, wantTier string, got, want []byte, assemblies int64) {
		t.Helper()
		if tier != wantTier {
			t.Errorf("%s: tier %q, want %q", rung, tier, wantTier)
		}
		if assemblies != 0 {
			t.Errorf("%s: %d assemblies for s·M, want 0", rung, assemblies)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: body differs from a fresh server's:\n%s\n%s", rung, got, want)
		}
	}

	// LRU.
	_, fresh := newTestServer(t, Config{MaxConcurrent: 2})
	_, wantLRU := solve(fresh.URL, proportionalScenario(20, 2))
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	solve(ts.URL, proportionalScenario(20, 1))
	before := s.Counters().Assemblies.Load()
	tier, got := solve(ts.URL, proportionalScenario(20, 2))
	check("lru", tier, tierLRU, got, wantLRU, s.Counters().Assemblies.Load()-before)
	// ... and s·M's raster is M's memo.
	raster := func(scale float64) string {
		return strings.Replace(proportionalScenario(20, scale), `"gpr"`, `"nx": 8, "ny": 8, "gpr"`, 1)
	}
	post(t, ctx, ts.URL, "/v1/raster", raster(1))
	code, hdr, gotRaster := post(t, ctx, ts.URL, "/v1/raster", raster(2))
	if code != http.StatusOK || hdr.Get("X-Groundd-Post") != postMemoized {
		t.Errorf("raster of s·M: status %d, post %q, want 200 from M's memo", code, hdr.Get("X-Groundd-Post"))
	}
	if _, _, want := post(t, ctx, fresh.URL, "/v1/raster", raster(2)); !bytes.Equal(gotRaster, want) {
		t.Errorf("memo raster of s·M differs from a fresh server's")
	}

	// Durable store across a restart.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{MaxConcurrent: 2, Store: st})
	ts1 := httptest.NewServer(s1)
	waitReady(t, ts1.URL, 2*time.Second)
	solve(ts1.URL, proportionalScenario(20, 1))
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{MaxConcurrent: 2, Store: st2})
	t.Cleanup(func() { s2.Close() })
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	waitReady(t, ts2.URL, 2*time.Second)
	tier, got = solve(ts2.URL, proportionalScenario(20, 2))
	check("store", tier, tierStore, got, wantLRU, s2.Counters().Assemblies.Load())

	// Ring owner: node1 solves M, node0 serves s·M from it.
	srvs, hts, _ := startFleet(t, 2, func(int) Config { return Config{MaxConcurrent: 2} })
	width := 0.0
	for w := 22.0; w < 400 && width == 0; w += 2 {
		var sc Scenario
		if err := json.Unmarshal([]byte(proportionalScenario(w, 1)), &sc); err != nil {
			t.Fatal(err)
		}
		b, err := sc.build(0)
		if err != nil {
			t.Fatal(err)
		}
		if srvs[0].fleet.ring.Owner(b.key) == "node1" {
			width = w
		}
	}
	if width == 0 {
		t.Fatal("no scenario owned by node1 within the search range")
	}
	_, wantPeer := solve(fresh.URL, proportionalScenario(width, 2))
	solve(hts[1].URL, proportionalScenario(width, 1))
	tier, got = solve(hts[0].URL, proportionalScenario(width, 2))
	check("peer", tier, tierPeer, got, wantPeer, srvs[0].Counters().Assemblies.Load())
}
