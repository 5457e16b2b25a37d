package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"earthing/internal/grid"
	"earthing/internal/store"
)

// legacyScenarioKey is a cache key format of older binaries: tail is what
// followed "kind=linear" — "" for binaries that did not key the assembly
// kernel (they assembled with the reference kernel), ";kernel=flat" for
// binaries that evaluated the flat kernel pair by pair, before pair classes.
func legacyScenarioKey(t *testing.T, sc Scenario, tail string) string {
	t.Helper()
	b, err := sc.build(0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := grid.Write(h, b.grid); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "\n%s\nelemlen=%.17g;rodelems=%d;seriestol=%.17g;solver=cholesky;kind=linear%s\n",
		sc.Soil.canonicalSoil(), sc.MaxElemLen, sc.RodElements, b.cfg.BEM.SeriesTol, tail)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestLegacyKeyRecordMisses pins the kernel arithmetic in the cache key:
// durable records written under the pre-kernel key format and under the
// per-pair flat-kernel format before pair classes — each holding a genuine
// density for the scenario, so only the key can reject it — are never
// served; the scenario is solved afresh and stored under the current key.
func TestLegacyKeyRecordMisses(t *testing.T) {
	sc := Scenario{
		Grid: GridSpec{Rect: &RectSpec{
			Width: 20, Height: 20, NX: 4, NY: 4, Depth: 0.8, Radius: 0.006,
		}},
		Soil:      SoilSpec{Kind: "uniform", Gamma1: 0.0125},
		SeriesTol: 1e-3,
	}
	key := scenarioKeyOf(t, 20)
	legacy := []string{legacyScenarioKey(t, sc, ""), legacyScenarioKey(t, sc, ";kernel=flat")}
	for _, l := range legacy {
		if l == key {
			t.Fatalf("current key equals the legacy key %s", l)
		}
	}

	// A density for the scenario, as an old binary would have stored it.
	s0 := New(Config{MaxConcurrent: 1})
	ts0 := httptest.NewServer(s0)
	code, _, _ := post(t, context.Background(), ts0.URL, "/v1/solve", fastScenario(20, 10_000))
	ts0.Close()
	s0.Close()
	if code != http.StatusOK {
		t.Fatalf("seed solve: status %d", code)
	}
	res, ok := s0.cache.get(key)
	if !ok {
		t.Fatal("seed solve not cached")
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range legacy {
		if err := st.Append(store.Record{Key: l, Sigma: res.Sigma}); err != nil {
			t.Fatal(err)
		}
	}
	st.Flush()
	s := New(Config{MaxConcurrent: 2, Store: st})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	waitReady(t, ts.URL, 2*time.Second)
	for _, l := range legacy {
		if _, ok := st.Lookup(l); !ok {
			t.Fatalf("legacy record %s missing from the store index", l)
		}
	}

	code, hdr, body := post(t, context.Background(), ts.URL, "/v1/solve", fastScenario(20, 10_000))
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, body)
	}
	if got := hdr.Get("X-Groundd-Cache"); got != "miss" {
		t.Errorf("disposition = %q with only legacy-key records stored, want miss", got)
	}
	if n := s.Counters().Assemblies.Load(); n != 1 {
		t.Errorf("assemblies = %d, want 1 (fresh solve)", n)
	}
	if st := getStats(t, ts.URL); st.StoreHits != 0 {
		t.Errorf("storeHits = %d, want 0", st.StoreHits)
	}
	st.Flush()
	if _, ok := st.Lookup(key); !ok {
		t.Error("fresh solve not stored under the kernel-qualified key")
	}
}
