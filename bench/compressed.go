package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"earthing"
)

// hmatrixEps is the block tolerance of the compressed workload; the engine's
// contract keeps Req within 10·ε of the dense answer.
const hmatrixEps = 1e-6

// compressed runs the H-matrix tier, which groundd does not expose, through
// the earthing facade: one caller analyzing interconnected multi-substation
// systems, where hmatrix.Build is nearly the whole cost.
type compressed struct {
	e *env
	n int // target degrees of freedom per system

	mu   sync.Mutex
	reqs map[int]float64
}

// compressedDoF is the size of the compressed workload's systems. At 550
// the cluster tree is a level deeper than at 500: over a third of the blocks
// are low-rank and the matrix stores about 70 % of its dense bytes, against
// a fifth and 85 % at 500. One analysis takes about 0.7 s on the README's
// host, so a run reaches its 40 operations in under 30 s.
const compressedDoF = 550

func newCompressed(ctx context.Context, e *env) (instance, error) {
	c := &compressed{e: e, n: compressedDoF, reqs: map[int]float64{}}
	if e.quick {
		c.n = 120
	}
	if r := c.op(ctx, warmupIndex, nil); r.err != nil {
		return nil, fmt.Errorf("warm-up: %w", r.err)
	}
	return c, nil
}

func (c *compressed) input(i int) compressedInput {
	return compressedCase(newRNG(c.e.seed, streamCompressed, i), c.n)
}

func (c *compressed) op(ctx context.Context, i int, tr *tracer) opResult {
	in := c.input(i)
	id := tr.begin("earthing.analyze", i, 0)
	res, err := earthing.Analyze(ctx, in.grid, in.model, earthing.Config{GPR: 1},
		earthing.WithHMatrix(hmatrixEps, 2), earthing.WithFlatAssembly())
	tr.end(id, "")
	if err != nil {
		return opResult{err: err}
	}
	if res.HMatrix.N == 0 {
		return opResult{err: fmt.Errorf("fell back to the dense tier: %v", res.Warnings)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqs[i] = res.Req
	return opResult{}
}

// verify solves every 20th system densely (flat kernel, blocked Cholesky):
// the compressed Req must lie within 10·ε of it.
func (c *compressed) verify(ctx context.Context) (verdict, error) {
	v := verdict{wrong: map[int]string{}}
	c.mu.Lock()
	var idx []int
	for i := range c.reqs {
		if i%20 == 0 && i < warmupIndex {
			idx = append(idx, i)
		}
	}
	c.mu.Unlock()
	sort.Ints(idx)
	worst := 0.0
	for _, i := range idx {
		in := c.input(i)
		dense, err := earthing.Analyze(ctx, in.grid, in.model, earthing.Config{GPR: 1, Solver: earthing.CholeskyBlocked},
			earthing.WithFlatAssembly())
		if err != nil {
			return v, err
		}
		c.mu.Lock()
		got := c.reqs[i]
		c.mu.Unlock()
		rel := math.Abs(got-dense.Req) / dense.Req
		worst = math.Max(worst, rel)
		if !(rel <= 10*hmatrixEps) {
			v.wrong[i] = fmt.Sprintf("Req %.12g, dense %.12g: relative error %.3g above %g", got, dense.Req, rel, 10*hmatrixEps)
		}
		v.checked++
	}
	v.note = fmt.Sprintf("%d systems solved densely, worst relative Req error %.3g (limit %g)", v.checked, worst, 10*hmatrixEps)
	return v, nil
}

func (c *compressed) replayInputs() ([]replayInput, error) {
	in := c.input(0)
	cfg := earthing.Config{GPR: 1, Solver: earthing.SolverHMatrix, BEM: earthing.BEMOptions{Kernel: earthing.FlatKernel}}
	cfg.HMatrix.Eps, cfg.HMatrix.Eta = hmatrixEps, 2
	return []replayInput{{grid: in.grid, model: in.model, cfg: cfg, gpr: 10_000}}, nil
}

func (c *compressed) counters(context.Context) (map[string]float64, error) {
	return map[string]float64{}, nil
}

func (c *compressed) close(context.Context) error { return nil }
