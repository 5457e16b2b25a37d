package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"earthing"
	"earthing/internal/server"
)

// designLoop runs whole grid-synthesis searches through groundd's
// /v1/optimize: the design-loop engine batching candidate layouts through
// the sweep engine, with touch and step voltages evaluated for every
// candidate, streamed back as NDJSON.
type designLoop struct {
	e      *env
	node   *node
	client *client
	base   []server.Snapshot

	mu     sync.Mutex
	finals map[int][]byte // op index → terminal NDJSON line
	stats  earthing.OptimizeStats
}

func newDesignLoop(ctx context.Context, e *env) (instance, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	n, err := startNode(ln, server.Config{})
	if err != nil {
		return nil, err
	}
	d := &designLoop{e: e, node: n, client: newClient(1), finals: map[int][]byte{}}
	if r := d.op(ctx, warmupIndex, nil); r.err != nil {
		return nil, fmt.Errorf("warm-up: %w", closeAfter(ctx, d, r.err))
	}
	d.stats = earthing.OptimizeStats{}
	if d.base, err = snapshotAll(ctx, d.client, []*node{n}); err != nil {
		return nil, closeAfter(ctx, d, err)
	}
	return d, nil
}

func (d *designLoop) spec(i int) server.OptimizeRequest {
	return designSpec(newRNG(d.e.seed, streamDesign, i), d.e.quick)
}

func (d *designLoop) op(ctx context.Context, i int, tr *tracer) opResult {
	final, err := d.optimize(ctx, i, tr)
	if err != nil {
		return opResult{err: err}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.finals[i] = final
	return opResult{}
}

// optimize runs design i and returns its terminal line, checked for a
// completed search.
func (d *designLoop) optimize(ctx context.Context, i int, tr *tracer) ([]byte, error) {
	body, err := json.Marshal(d.spec(i))
	if err != nil {
		return nil, err
	}
	id := tr.begin("groundd.optimize", i, 0)
	resp, err := d.client.post(ctx, d.node.url+"/v1/optimize", body)
	tr.end(id, "")
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(resp.body), []byte("\n"))
	final := lines[len(lines)-1]
	var line server.OptimizeLine
	if err := json.Unmarshal(final, &line); err != nil {
		return nil, fmt.Errorf("terminal line: %w", err)
	}
	// no_feasible is a legitimate answer (the best violating layout); any
	// other code means the search itself failed.
	if !line.Final || line.Stats == nil || (line.Code != "" && line.Code != "no_feasible") {
		return nil, fmt.Errorf("search did not complete: %s", final)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Requested += line.Stats.Requested
	d.stats.Evaluated += line.Stats.Evaluated
	d.stats.CacheHits += line.Stats.CacheHits
	return final, nil
}

// verify repeats design 0 after the pass: the search is deterministic, so its
// terminal line must match the first run's byte for byte.
func (d *designLoop) verify(ctx context.Context) (verdict, error) {
	v := verdict{wrong: map[int]string{}}
	d.mu.Lock()
	first, ok := d.finals[0]
	d.mu.Unlock()
	if !ok {
		v.note = "design 0 did not complete, nothing to repeat"
		return v, nil
	}
	again, err := d.optimize(ctx, 0, nil)
	if err != nil {
		return v, err
	}
	v.checked = 1
	if !bytes.Equal(first, again) {
		v.wrong[0] = fmt.Sprintf("repeated design differs:\n  %s\n  %s", first, again)
	}
	v.note = fmt.Sprintf("design 0 repeated, terminal line identical: %t", len(v.wrong) == 0)
	return v, nil
}

// replayInputs are 4 × 4 lattices with corner rods over the first two
// sites, in their soils, under the configuration /v1/optimize gives its
// candidates.
func (d *designLoop) replayInputs() ([]replayInput, error) {
	var out []replayInput
	for i := 0; i < 2; i++ {
		spec := d.spec(i)
		sc := spec.Scenario
		sc.Grid.Rect = &server.RectSpec{Width: spec.Width, Height: spec.Height, NX: 4, NY: 4, Depth: spec.MinDepth, Radius: 0.006}
		for _, c := range [][2]float64{{0, 0}, {spec.Width, 0}, {0, spec.Height}, {spec.Width, spec.Height}} {
			sc.Grid.Rect.Rods = append(sc.Grid.Rect.Rods, server.RodSpec{X: c[0], Y: c[1], Top: spec.MinDepth, Length: 3, Radius: 0.007})
		}
		sc.GPR = spec.FaultCurrentA
		in, err := scenarioInput(sc, sc.RodElements)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

func (d *designLoop) counters(ctx context.Context) (map[string]float64, error) {
	after, err := snapshotAll(ctx, d.client, []*node{d.node})
	if err != nil {
		return nil, err
	}
	out := statsDelta(d.base, after)
	d.mu.Lock()
	defer d.mu.Unlock()
	out["designopt.requested"] = float64(d.stats.Requested)
	out["designopt.evaluated"] = float64(d.stats.Evaluated)
	if d.stats.Requested > 0 {
		out["designopt.hit_rate"] = float64(d.stats.CacheHits) / float64(d.stats.Requested)
	}
	return out, nil
}

func (d *designLoop) close(ctx context.Context) error {
	d.client.close()
	return d.node.stop(ctx)
}
