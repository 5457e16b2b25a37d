package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"earthing/internal/server"
)

// warmLadder drives a two-node groundd fleet whose durable stores were
// filled before a restart, with Zipf-skewed traffic over a working set
// larger than each node's LRU. It is the one workload that reaches every
// rung of the degradation ladder: LRU hits, store rehydrates after
// evictions, peer fetches from the ring owner, and solves of keys nobody
// holds yet.
type warmLadder struct {
	e      *env
	scen   []server.Scenario
	perm   []int // Zipf rank → scenario
	zipf   zipf
	dir    string
	nodes  []*node
	client *client
	base   []server.Snapshot

	mu       sync.Mutex
	bodies   map[warmKey][sha256.Size]byte // first body seen per request
	compared int
	wrong    map[int]string
}

// warmKey identifies a request: the same key must always get the same body,
// whichever node and rung serve it.
type warmKey struct {
	scenario int
	kind     string
}

// warmInputs draws the working set, 160 small lattices, and the seeded
// order in which Zipf ranks map onto them. Every scenario has the same
// lattice and a site of 25–35 m, so a request costs about the same whichever
// scenario the seed makes popular.
func warmInputs(e *env) (scen []server.Scenario, perm []int) {
	n, lines := 160, 4
	if e.quick {
		n, lines = 12, 3
	}
	for i := 0; i < n; i++ {
		scen = append(scen, latticeScenario(newRNG(e.seed, streamWarmScenario, i), lines, lines, 25, 35))
	}
	return scen, permutation(newRNG(e.seed, streamWarmScenario, -1), n)
}

func newWarmLadder(ctx context.Context, e *env) (instance, error) {
	w := &warmLadder{
		e:      e,
		client: newClient(2),
		bodies: map[warmKey][sha256.Size]byte{},
		wrong:  map[int]string{},
	}
	w.scen, w.perm = warmInputs(e)
	w.zipf = newZipf(len(w.scen), 1.1)
	n := len(w.scen)

	var err error
	if w.dir, err = os.MkdirTemp(e.tmp, "warm-ladder-*"); err != nil {
		return nil, err
	}
	dirs := []string{filepath.Join(w.dir, "node0"), filepath.Join(w.dir, "node1")}
	if w.nodes, err = startFleet(ctx, dirs); err != nil {
		return nil, closeAfter(ctx, w, err)
	}
	// Scenario i is solved on node i mod 2, one caller per node, so each
	// store holds half the working set.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n && errs[k] == nil; i += 2 {
				errs[k] = w.send(ctx, -1, warmKey{i, "solve"}, k, nil).err
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, closeAfter(ctx, w, err)
		}
	}
	// Restart both nodes on their store directories: the LRUs start empty
	// and the stores replay what set-up solved.
	if err := stopAll(ctx, w.nodes); err != nil {
		w.nodes = nil
		return nil, closeAfter(ctx, w, err)
	}
	if w.nodes, err = startFleet(ctx, dirs); err != nil {
		return nil, closeAfter(ctx, w, err)
	}
	for _, nd := range w.nodes {
		if err := w.client.waitReady(ctx, nd); err != nil {
			return nil, closeAfter(ctx, w, err)
		}
	}
	if w.base, err = snapshotAll(ctx, w.client, w.nodes); err != nil {
		return nil, closeAfter(ctx, w, err)
	}
	return w, nil
}

// permutation is a seeded Fisher–Yates shuffle of 0..n-1.
func permutation(r *rng, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// request draws request i: a Zipf(1.1)-ranked scenario, 80 % /v1/solve,
// 15 % /v1/safety and 5 % /v1/raster, sent to a node picked by the seed.
// The median request is a /v1/solve LRU hit, almost all HTTP and JSON.
func (w *warmLadder) request(i int) (k warmKey, node int) {
	r := newRNG(w.e.seed, streamWarmRequest, i)
	k = warmKey{scenario: w.perm[w.zipf.rank(r.float())], kind: "solve"}
	switch u := r.float(); {
	case u >= 0.95:
		k.kind = "raster"
	case u >= 0.80:
		k.kind = "safety"
	}
	return k, int(r.next() & 1)
}

func (w *warmLadder) op(ctx context.Context, i int, tr *tracer) opResult {
	k, node := w.request(i)
	return w.send(ctx, i, k, node, tr)
}

func (w *warmLadder) send(ctx context.Context, i int, k warmKey, nodeIdx int, tr *tracer) opResult {
	sc := w.scen[k.scenario]
	var req any
	switch k.kind {
	case "solve":
		req = server.SolveRequest{Scenario: sc}
	case "safety":
		req = server.SafetyRequest{
			Scenario: sc,
			Criteria: server.CriteriaSpec{FaultDurationS: 0.5, SoilRho: 1 / sc.Soil.Gamma1, SurfaceRho: 3_000, SurfaceThicknessM: 0.1},
			StepResM: 2,
		}
	default:
		req = server.RasterRequest{Scenario: sc, NX: 32, NY: 32}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return opResult{err: err}
	}
	id := tr.begin("groundd."+k.kind, i, 0)
	resp, err := w.client.post(ctx, w.nodes[nodeIdx].url+"/v1/"+k.kind, body)
	tr.end(id, resp.tier)
	if err != nil {
		return opResult{tier: resp.tier, err: err}
	}
	h := sha256.Sum256(resp.body)
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, ok := w.bodies[k]; !ok {
		w.bodies[k] = h
	} else {
		w.compared++
		if first != h {
			w.wrong[i] = fmt.Sprintf("%s of scenario %d from node%d (%s rung) differs from its first body",
				k.kind, k.scenario, nodeIdx, resp.tier)
		}
	}
	return opResult{tier: resp.tier}
}

// verify reports the body comparisons made as responses arrived: every body
// for one request must be byte-identical across rungs and nodes, including
// the set-up solves on the solve rung.
func (w *warmLadder) verify(context.Context) (verdict, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := verdict{checked: w.compared, wrong: map[int]string{}}
	for i, why := range w.wrong {
		v.wrong[i] = why
	}
	v.note = fmt.Sprintf("%d bodies compared with the first body of the same request, %d differ", w.compared, len(w.wrong))
	return v, nil
}

func (w *warmLadder) replayInputs() ([]replayInput, error) {
	var out []replayInput
	for _, s := range w.perm[:4] {
		in, err := scenarioInput(w.scen[s], 0)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

func (w *warmLadder) counters(ctx context.Context) (map[string]float64, error) {
	after, err := snapshotAll(ctx, w.client, w.nodes)
	if err != nil {
		return nil, err
	}
	return statsDelta(w.base, after), nil
}

func (w *warmLadder) close(ctx context.Context) error {
	w.client.close()
	err := stopAll(ctx, w.nodes)
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
