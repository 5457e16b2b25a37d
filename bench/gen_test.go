package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"earthing"
	"earthing/internal/core"
	"earthing/internal/server"
)

// requestStream renders everything the workloads would send for seed, as
// bytes: the first cold-solve scenarios, the warm-ladder working set and
// its first requests, the first design specs and the first compressed
// systems.
func requestStream(t *testing.T, seed int64) []byte {
	t.Helper()
	e := &env{seed: seed}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	cold := &coldSolve{e: e}
	for i := 0; i < 8; i++ {
		must(t, enc.Encode(cold.scenario(i)))
	}
	w := &warmLadder{e: e}
	w.scen, w.perm = warmInputs(e)
	w.zipf = newZipf(len(w.scen), 1.1)
	must(t, enc.Encode(w.scen))
	for i := 0; i < 50; i++ {
		k, node := w.request(i)
		must(t, enc.Encode([]any{k.scenario, k.kind, node}))
	}
	d := &designLoop{e: e}
	for i := 0; i < 4; i++ {
		must(t, enc.Encode(d.spec(i)))
	}
	c := &compressed{e: e, n: compressedDoF}
	for i := 0; i < 2; i++ {
		in := c.input(i)
		must(t, earthing.WriteGrid(&b, in.grid))
		fmt.Fprintf(&b, "%#v\n", in.model)
	}
	return b.Bytes()
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorsDeterministic: seeds 1–50 produce byte-identical request
// streams on every call, and different seeds produce different streams.
func TestGeneratorsDeterministic(t *testing.T) {
	var prev []byte
	for seed := int64(1); seed <= 50; seed++ {
		a, b := requestStream(t, seed), requestStream(t, seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two calls produced different request streams", seed)
		}
		if bytes.Equal(a, prev) {
			t.Fatalf("seed %d repeats the previous seed's stream", seed)
		}
		prev = a
	}
}

// TestGeneratedScenariosAreValid: every generated scenario keeps its soil
// interface at least minClearance from every conductor depth and rod end,
// and builds through core.BuildMesh.
func TestGeneratedScenariosAreValid(t *testing.T) {
	build := func(seed int64, what string, g *earthing.Grid, model earthing.SoilModel, cfg earthing.Config) {
		t.Helper()
		depths := core.InterfaceDepths(model)
		if len(depths) != 1 {
			t.Fatalf("seed %d %s: %d soil interfaces, want 1", seed, what, len(depths))
		}
		for _, cd := range g.Conductors {
			for _, z := range []float64{cd.Seg.A.Z, cd.Seg.B.Z} {
				if math.Abs(z-depths[0]) < minClearance {
					t.Errorf("seed %d %s: interface at %.3f m, conductor end at %.3f m", seed, what, depths[0], z)
				}
			}
		}
		if _, _, err := core.BuildMesh(g, model, cfg); err != nil {
			t.Errorf("seed %d %s: %v", seed, what, err)
		}
	}
	scenario := func(seed int64, what string, sc server.Scenario, rodElements int) {
		t.Helper()
		in, err := scenarioInput(sc, rodElements)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, what, err)
		}
		build(seed, what, in.grid, in.model, in.cfg)
	}
	for seed := int64(1); seed <= 50; seed++ {
		for i := 0; i < 8; i++ {
			scenario(seed, "cold-solve", (&coldSolve{e: &env{seed: seed}}).scenario(i), 0)
		}
		scen, _ := warmInputs(&env{seed: seed})
		for i, sc := range scen {
			scenario(seed, fmt.Sprintf("warm-ladder %d", i), sc, 0)
		}
		d := &designLoop{e: &env{seed: seed}}
		for i := 0; i < 4; i++ {
			spec := d.spec(i)
			// designopt buries candidates between MinDepth and MaxDepth with
			// 3 m perimeter rods: check both extremes of that family.
			for _, depth := range []float64{spec.MinDepth, spec.MaxDepth} {
				sc := spec.Scenario
				sc.Grid.Rect = &server.RectSpec{Width: spec.Width, Height: spec.Height, NX: 3, NY: 3, Depth: depth, Radius: 0.006,
					Rods: []server.RodSpec{{X: 0, Y: 0, Top: depth, Length: 3, Radius: 0.007}}}
				scenario(seed, "design candidate", sc, spec.RodElements)
			}
		}
		in := (&compressed{e: &env{seed: seed}, n: compressedDoF}).input(0)
		build(seed, "interconnected", in.grid, in.model, earthing.Config{})
	}
}
