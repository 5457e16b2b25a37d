package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"earthing"
	"earthing/internal/server"
)

// coldSolve sends groundd a never-seen scenario on every request, so each
// one runs the whole pipeline on the solve rung: mesh, matrix generation and
// the Cholesky solve, with the LRU, store, peer and post-processing layers
// bypassed.
type coldSolve struct {
	e      *env
	node   *node
	client *client
	base   []server.Snapshot

	mu   sync.Mutex
	reqs map[int]float64 // op index → reqOhms as served
}

func newColdSolve(ctx context.Context, e *env) (instance, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	n, err := startNode(ln, server.Config{})
	if err != nil {
		return nil, err
	}
	c := &coldSolve{e: e, node: n, client: newClient(2), reqs: map[int]float64{}}
	// One warm-up solve per lattice size of the cycle.
	for i := warmupIndex; i < warmupIndex+4; i++ {
		if r := c.op(ctx, i, nil); r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", closeAfter(ctx, c, r.err))
		}
	}
	if c.base, err = snapshotAll(ctx, c.client, []*node{n}); err != nil {
		return nil, closeAfter(ctx, c, err)
	}
	return c, nil
}

// scenario draws scenario i. The lattice size cycles through a fixed list
// rather than being drawn, so every run has the same mix of cheap and dear
// scenarios whatever the seed, and the run-to-run spread of a median
// reflects the program rather than the luck of the draw.
func (c *coldSolve) scenario(i int) server.Scenario {
	sizes := [][2]int{{5, 5}, {5, 6}, {6, 5}, {6, 6}}
	if c.e.quick {
		sizes = [][2]int{{3, 3}, {3, 4}}
	}
	p := sizes[i%len(sizes)]
	return latticeScenario(newRNG(c.e.seed, streamCold, i), p[0], p[1], 40, 80)
}

func (c *coldSolve) op(ctx context.Context, i int, tr *tracer) opResult {
	body, err := json.Marshal(server.SolveRequest{Scenario: c.scenario(i)})
	if err != nil {
		return opResult{err: err}
	}
	id := tr.begin("groundd.solve", i, 0)
	resp, err := c.client.post(ctx, c.node.url+"/v1/solve", body)
	tr.end(id, resp.tier)
	if err != nil {
		return opResult{err: err}
	}
	if resp.tier != "solve" {
		return opResult{tier: resp.tier, err: fmt.Errorf("served from the %q rung; every scenario should be new", resp.tier)}
	}
	var sr server.SolveResponse
	if err := json.Unmarshal(resp.body, &sr); err != nil {
		return opResult{tier: resp.tier, err: err}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqs[i] = sr.ReqOhms
	return opResult{tier: resp.tier}
}

// verify re-solves every 10th scenario with earthing.Analyze under groundd's
// configuration: the served reqOhms must be bit-identical.
func (c *coldSolve) verify(ctx context.Context) (verdict, error) {
	v := verdict{wrong: map[int]string{}}
	for _, i := range c.answered() {
		if i%10 != 0 {
			continue
		}
		sc := c.scenario(i)
		model, err := sc.Soil.Build()
		if err != nil {
			return v, err
		}
		res, err := earthing.Analyze(ctx, rectGrid(sc.Grid.Rect), model, grounddConfig(0))
		if err != nil {
			return v, err
		}
		c.mu.Lock()
		got := c.reqs[i]
		c.mu.Unlock()
		if math.Float64bits(got) != math.Float64bits(res.Req) {
			v.wrong[i] = fmt.Sprintf("reqOhms %.17g, re-solve gives %.17g", got, res.Req)
		}
		v.checked++
	}
	v.note = fmt.Sprintf("%d re-solved scenarios compared bit for bit, %d differ", v.checked, len(v.wrong))
	return v, nil
}

func (c *coldSolve) answered() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.reqs))
	for i := range c.reqs {
		if i < warmupIndex {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func (c *coldSolve) replayInputs() ([]replayInput, error) {
	var out []replayInput
	for i := 0; i < 4; i++ {
		in, err := scenarioInput(c.scenario(i), 0)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

func (c *coldSolve) counters(ctx context.Context) (map[string]float64, error) {
	after, err := snapshotAll(ctx, c.client, []*node{c.node})
	if err != nil {
		return nil, err
	}
	return statsDelta(c.base, after), nil
}

func (c *coldSolve) close(ctx context.Context) error {
	c.client.close()
	return c.node.stop(ctx)
}

// closeAfter closes inst after a set-up failure and returns the failure.
func closeAfter(ctx context.Context, inst instance, err error) error {
	if cerr := inst.close(ctx); cerr != nil {
		return fmt.Errorf("%w (and closing: %v)", err, cerr)
	}
	return err
}
