package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"earthing/internal/grid"
	"earthing/internal/store"
)

// legacySoil is the soil rendering of the binaries that keyed the physical
// model rather than its unit model.
func legacySoil(s SoilSpec) string {
	switch s.Kind {
	case "uniform":
		return fmt.Sprintf("uniform;%.17g", s.Gamma1)
	case "two-layer":
		return fmt.Sprintf("two-layer;%.17g;%.17g;%.17g", s.Gamma1, s.Gamma2, s.H1)
	default:
		var b strings.Builder
		b.WriteString("multi")
		for _, g := range s.Gammas {
			fmt.Fprintf(&b, ";%.17g", g)
		}
		b.WriteString("|")
		for _, h := range s.Thicknesses {
			fmt.Fprintf(&b, ";%.17g", h)
		}
		return b.String()
	}
}

// legacyScenarioKey is a cache key format of older binaries: tail is what
// followed "kind=linear" — "" for binaries that did not key the assembly
// kernel (they assembled with the reference kernel), ";kernel=flat" for
// binaries that evaluated the flat kernel pair by pair, before pair classes,
// ";kernel=flat;pairs=d4q42" for binaries that walked the image ladder for
// every class, before the far-field table branch, and
// ";kernel=flat-far4;pairs=d4q42" for binaries that solved the physical
// model instead of the unit-γ₁ one.
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
		legacySoil(sc.Soil), sc.MaxElemLen, sc.RodElements, b.cfg.BEM.SeriesTol, tail)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestLegacyKeyRecordMisses pins the kernel arithmetic in the cache key:
// durable records written under the pre-kernel key format, under the
// per-pair flat-kernel format before pair classes, under the pair-class
// format before the far-field table branch and under the physical-model
// format before unit-γ₁ solves — each holding a genuine density for the
// scenario, so only the key can reject it — are never served; the scenario
// is solved afresh and stored under the current key.
func TestLegacyKeyRecordMisses(t *testing.T) {
	sc := Scenario{
		Grid: GridSpec{Rect: &RectSpec{
			Width: 20, Height: 20, NX: 4, NY: 4, Depth: 0.8, Radius: 0.006,
		}},
		Soil:      SoilSpec{Kind: "uniform", Gamma1: 0.0125},
		SeriesTol: 1e-3,
	}
	key := scenarioKeyOf(t, 20)
	legacy := []string{
		legacyScenarioKey(t, sc, ""),
		legacyScenarioKey(t, sc, ";kernel=flat"),
		legacyScenarioKey(t, sc, ";kernel=flat;pairs=d4q42"),
		legacyScenarioKey(t, sc, ";kernel=flat-far4;pairs=d4q42"),
	}
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

// TestScenarioKeyPinned pins the literal key bytes of two fixed scenarios, a
// Rect lattice and a builtin grid. The key addresses every durable store
// record and peer frame, so a formatting slip in scenarioKey would silently
// orphan them all; a deliberate change of the solution arithmetic must
// change these values on purpose (and bump a key component).
func TestScenarioKeyPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"rect-two-layer", Scenario{
			Grid: GridSpec{Rect: &RectSpec{Width: 30, Height: 20, NX: 4, NY: 3, Depth: 0.8, Radius: 0.006}},
			Soil: SoilSpec{Kind: "two-layer", Gamma1: 0.005, Gamma2: 0.016, H1: 1.0},
		}, "674341f41eb02473f26351fd85ce70bf"},
		{"balaidos-uniform", Scenario{
			Grid:        GridSpec{Builtin: "balaidos"},
			Soil:        SoilSpec{Kind: "uniform", Gamma1: 0.02},
			RodElements: 2,
		}, "04fb7f3efd7997e38b9fa31fb7456213"},
	} {
		b, err := c.sc.build(0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b.key != c.want {
			t.Errorf("%s: key %s, pinned %s", c.name, b.key, c.want)
		}
	}
}
