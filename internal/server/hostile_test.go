package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// hostileCase is one request that must be refused with a typed 400 before
// any solve, with want in the message.
type hostileCase struct {
	name, path, body, want string
}

// runHostile posts every case and checks each answer is a typed 400 and
// that none of them reached the solver.
func runHostile(t *testing.T, cases []hostileCase) *Server {
	t.Helper()
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := post(t, context.Background(), ts.URL, tc.path, tc.body)
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); code != http.StatusBadRequest || err != nil || eb.Code != "bad_request" {
				t.Errorf("status %d, body %s; want a typed 400", code, body)
			}
			if !strings.Contains(eb.Message, tc.want) {
				t.Errorf("message %q, want it to name %q", eb.Message, tc.want)
			}
		})
	}
	if n := s.Counters().Assemblies.Load(); n != 0 {
		t.Errorf("assemblies = %d, want 0: hostile requests must be refused before solving", n)
	}
	return s
}

// TestHostileWorkers: a parallel width above maxRequestWorkers is a typed
// 400 on every endpoint that takes one, instead of per-worker buffers sized
// by the request.
func TestHostileWorkers(t *testing.T) {
	const huge = `"workers": 1099511627776`
	runHostile(t, []hostileCase{
		{"solve", "/v1/solve", lattice25(1, ", "+huge), "workers"},
		{"solve just over", "/v1/solve", lattice25(1, `, "workers": 1025`), "workers"},
		{"raster", "/v1/raster", lattice25(1, ", "+huge+`, "nx": 8, "ny": 8`), "workers"},
		{"safety", "/v1/safety", lattice25(1, ", "+huge+safetyCriteria), "workers"},
		{"sweep", "/v1/sweep", fastSweep(20, " "+huge+",", [2]float64{0.0125, 1}), "workers"},
		{"optimize", "/v1/optimize", fastOptimize(" " + huge + ","), "workers"},
	})
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	if code, _, b := post(t, context.Background(), ts.URL, "/v1/solve", lattice25(1, `, "workers": 1024`)); code != http.StatusOK {
		t.Errorf("workers at the bound: status %d: %s", code, b)
	}
}

// TestHostileScenarioSize: a scenario whose discretization exceeds
// maxScenarioElements — however the size is reached — is a typed 400 on
// every endpoint before any per-element allocation, and so is an
// /v1/optimize search whose largest candidate would exceed it.
func TestHostileScenarioSize(t *testing.T) {
	const rect512 = `{
		"grid": {"rect": {"width": 500, "height": 500, "nx": 512, "ny": 512, "depth": 0.8, "radius": 0.006}},
		"soil": {"kind": "uniform", "gamma1": 0.0125}`
	const rodded = `{
		"grid": {"rect": {"width": 25, "height": 25, "nx": 2, "ny": 2, "depth": 0.8, "radius": 0.006,
			"rods": [{"x": 0, "y": 0, "top": 0.8, "length": 3, "radius": 0.007}]}},
		"soil": {"kind": "uniform", "gamma1": 0.0125}, "rodElements": 1000000000}`
	optimize := func(old, new string) string {
		body := fastOptimize("")
		if !strings.Contains(body, old) {
			t.Fatalf("fixture lacks %q", old)
		}
		return strings.Replace(body, old, new, 1)
	}
	runHostile(t, []hostileCase{
		{"solve 512x512 lattice", "/v1/solve", rect512 + "}", "elements exceeds the limit"},
		{"solve tiny maxElemLen", "/v1/solve", lattice25(1, `, "maxElemLen": 1e-6`), "elements exceeds the limit"},
		{"solve denormal maxElemLen", "/v1/solve", lattice25(1, `, "maxElemLen": 5e-324`), "elements exceeds the limit"},
		{"solve huge rodElements", "/v1/solve", rodded, "elements exceeds the limit"},
		{"raster 512x512 lattice", "/v1/raster", rect512 + `, "nx": 8, "ny": 8}`, "elements exceeds the limit"},
		{"safety tiny maxElemLen", "/v1/safety", lattice25(1, `, "maxElemLen": 1e-6`+safetyCriteria), "elements exceeds the limit"},
		{"sweep tiny maxElemLen", "/v1/sweep", fastSweep(20, ` "maxElemLen": 1e-6,`, [2]float64{0.0125, 1}), "elements exceeds the limit"},
		{"optimize 200 lines", "/v1/optimize", optimize(`"maxLines": 4`, `"maxLines": 200`), "elements exceeds the limit"},
		{"optimize 1e9 lines", "/v1/optimize", optimize(`"maxLines": 4`, `"maxLines": 1000000000`), "lattice lines"},
		{"optimize 1e9 minLines", "/v1/optimize", optimize(`"minLines": 2, "maxLines": 4`, `"minLines": 1000000000`), "lattice lines"},
		{"optimize 1e12 rods", "/v1/optimize", optimize(`"maxRods": 2`, `"maxRods": 1000000000000`), "rods exceed"},
		{"optimize tiny maxElemLen", "/v1/optimize", fastOptimize(` "maxElemLen": 1e-6,`), "elements exceeds the limit"},
	})
}

// TestElementCapBoundary pins the cap itself: a 2 × 2 lattice of 2048 m
// sides at maxElemLen 1 discretizes into exactly maxScenarioElements
// elements and builds; any finer discretization is refused.
func TestElementCapBoundary(t *testing.T) {
	sc := Scenario{
		Grid: GridSpec{Rect: &RectSpec{Width: 2048, Height: 2048, NX: 2, NY: 2, Depth: 0.8, Radius: 0.006}},
		Soil: SoilSpec{Kind: "uniform", Gamma1: 0.0125},
	}
	sc.MaxElemLen = 2048 * 4 / maxScenarioElements
	if _, err := sc.build(1); err != nil {
		t.Fatalf("exactly %d elements refused: %v", maxScenarioElements, err)
	}
	sc.MaxElemLen *= 0.999
	if _, err := sc.build(1); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("%d+ elements: err = %v, want the element limit", maxScenarioElements, err)
	}
}
