package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"earthing/internal/core"
	"earthing/internal/designopt"
	"earthing/internal/fsio"
	"earthing/internal/grid"
	"earthing/internal/post"
	"earthing/internal/safety"
	"earthing/internal/soil"
)

// OptimizeBench records the design-loop benchmark: the grid-synthesis engine
// searching a Balaidos-class site (80 × 60 m, the §5.2 two-layer soil)
// against a naive baseline that solves every requested candidate
// independently. The engine analyzes each generation's unique candidates on
// the search's shared image ladder and serves repeat requests from its
// evaluation cache, so the comparison isolates exactly that amortization.
type OptimizeBench struct {
	// Width, Height are the site plan dimensions in metres.
	Width  float64 `json:"width_m"`
	Height float64 `json:"height_m"`
	// Workers is the parallel width both legs run at.
	Workers int `json:"workers"`
	// Starts and MaxEvals are the search knobs driving the candidate volume.
	Starts   int `json:"starts"`
	MaxEvals int `json:"max_evals"`

	// Requested is the total candidate requests the descents issued
	// (acceptance bar: ≥ 200); Evaluated the unique candidates solved;
	// CacheHits the requests served from the evaluation cache.
	Requested   int     `json:"requested"`
	Evaluated   int     `json:"evaluated"`
	CacheHits   int     `json:"cache_hits"`
	HitRate     float64 `json:"hit_rate"`
	Generations int     `json:"generations"`

	// Feasible and BestCost describe the winning design.
	Feasible bool    `json:"feasible"`
	BestCost float64 `json:"best_cost"`
	BestNX   int     `json:"best_nx"`
	BestNY   int     `json:"best_ny"`
	BestRods int     `json:"best_rods"`

	// EngineMs is the wall time of the full search; CandidatesPerSec is
	// Requested over that wall time (SolvesPerSec counts only the unique
	// candidates actually solved).
	EngineMs         float64 `json:"engine_ms"`
	CandidatesPerSec float64 `json:"candidates_per_sec"`
	SolvesPerSec     float64 `json:"solves_per_sec"`

	// NaivePerCandidateMs is the measured wall time of one independent
	// Analyze of a representative candidate lattice at the same worker count
	// and discretization (mean over small/medium/large family members).
	// NaiveMs estimates a cache-less searcher: NaivePerCandidateMs ×
	// Requested. Speedup = NaiveMs / EngineMs (acceptance bar: ≥ 2).
	NaivePerCandidateMs float64 `json:"naive_per_candidate_ms"`
	NaiveMs             float64 `json:"naive_ms"`
	Speedup             float64 `json:"speedup"`

	// Deterministic reports whether a second search at a different worker
	// count reproduced the winning design byte for byte.
	Deterministic bool `json:"deterministic"`
}

// optimizeWorkload returns the benchmark problem: a Balaidos-class site under
// the §5.2 Balaidos two-layer soil, with bounds sized so the search issues a
// few hundred candidate requests.
func optimizeWorkload(q Quality, workers int) (designopt.Spec, designopt.Options) {
	spec := designopt.Spec{
		Width: 80, Height: 60,
		Model:        soil.NewTwoLayer(0.005, 0.016, 1.0),
		FaultCurrent: 1_000,
		Safety: safety.Criteria{
			FaultDuration:    0.5,
			SoilRho:          200,
			SurfaceRho:       3_000,
			SurfaceThickness: 0.1,
		},
		MinLines: 2, MaxLines: 7,
		MaxRods:    8,
		VoltageRes: 5,
	}
	opt := designopt.Options{
		Starts:   4,
		MaxEvals: 400,
		Seed:     1,
	}
	opt.Config = core.Config{
		RodElements: 2,
		BEM:         q.bemOptions(workers),
	}
	return spec, opt
}

// RunOptimizeBench measures the design loop against the naive baseline,
// honouring ctx cancellation in every leg. workers ≤ 0 selects GOMAXPROCS.
func RunOptimizeBench(ctx context.Context, q Quality, workers int) (OptimizeBench, error) {
	q = q.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	spec, opt := optimizeWorkload(q, workers)
	out := OptimizeBench{
		Width: spec.Width, Height: spec.Height,
		Starts: opt.Starts, MaxEvals: opt.MaxEvals,
	}

	t0 := time.Now()
	best, stats, err := designopt.Run(ctx, spec, opt)
	if err != nil {
		return out, err
	}
	wall := time.Since(t0)

	out.Requested = stats.Requested
	out.Evaluated = stats.Evaluated
	out.CacheHits = stats.CacheHits
	out.HitRate = stats.HitRate
	out.Generations = stats.Generations
	out.Feasible = best.Feasible
	out.BestCost = best.Cost
	out.BestNX, out.BestNY, out.BestRods = best.NX, best.NY, best.Rods
	out.EngineMs = float64(wall.Nanoseconds()) / 1e6
	out.CandidatesPerSec = float64(stats.Requested) / wall.Seconds()
	out.SolvesPerSec = float64(stats.Evaluated) / wall.Seconds()
	out.Workers = opt.Config.BEM.Workers

	// Naive baseline: one independent evaluation per representative family
	// member (smallest, median and largest lattice), each paying its own
	// meshing, assembly and solve and the touch/step voltage extraction the
	// engine scores every candidate with. A cache-less searcher pays that
	// for every one of the Requested candidates.
	cfg := opt.Config
	cfg.GPR = 1
	var naive time.Duration
	lines := []int{spec.MinLines, (spec.MinLines + spec.MaxLines) / 2, spec.MaxLines}
	for _, n := range lines {
		g := grid.RectMesh(0, 0, spec.Width, spec.Height, n, n, 0.6, 0.006)
		t := time.Now()
		res, err := core.AnalyzeCtx(ctx, g, spec.Model, cfg)
		if err != nil {
			return out, err
		}
		if _, err := post.ComputeVoltagesCtx(ctx, res.Assembler(), res.Mesh, res.Sigma, res.Req*spec.FaultCurrent,
			spec.VoltageRes, post.SurfaceOptions{Workers: cfg.BEM.Workers, Schedule: cfg.BEM.Schedule}); err != nil {
			return out, err
		}
		naive += time.Since(t)
	}
	out.NaivePerCandidateMs = float64(naive.Nanoseconds()) / 1e6 / float64(len(lines))
	out.NaiveMs = out.NaivePerCandidateMs * float64(stats.Requested)
	out.Speedup = out.NaiveMs / out.EngineMs

	// Determinism probe: the same search at a different worker count must
	// reproduce the winning design byte for byte.
	opt2 := opt
	opt2.Config.BEM.Workers = 1
	if out.Workers == 1 {
		opt2.Config.BEM.Workers = 2
	}
	best2, _, err := designopt.Run(ctx, spec, opt2)
	if err != nil {
		return out, err
	}
	a, err := json.Marshal(best)
	if err != nil {
		return out, err
	}
	b, err := json.Marshal(best2)
	if err != nil {
		return out, err
	}
	out.Deterministic = string(a) == string(b)
	return out, nil
}

// OptimizeLoop prints the design-loop benchmark and, when jsonPath is
// non-empty, writes the OptimizeBench record there as JSON
// (BENCH_optimize.json in the repo convention).
func OptimizeLoop(ctx context.Context, out io.Writer, q Quality, workers int, jsonPath string) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	ob, err := RunOptimizeBench(ctx, q, workers)
	if err != nil {
		return err
	}
	header(w, "Design loop — grid synthesis on a Balaidos-class site")
	fmt.Fprintf(w, "site %.0f × %.0f m, %d starts × %d max evals, %d workers\n",
		ob.Width, ob.Height, ob.Starts, ob.MaxEvals, ob.Workers)
	fmt.Fprintf(w, "search: %d candidates requested, %d solved, %d cache hits (%.0f%% hit rate), %d generations\n",
		ob.Requested, ob.Evaluated, ob.CacheHits, 100*ob.HitRate, ob.Generations)
	fmt.Fprintf(w, "winner: %dx%d lattice, %d rods, cost %.1f, feasible=%v\n",
		ob.BestNX, ob.BestNY, ob.BestRods, ob.BestCost, ob.Feasible)
	fmt.Fprintf(w, "engine:  %10.1f ms  (%.1f candidates/s, %.1f solves/s)\n",
		ob.EngineMs, ob.CandidatesPerSec, ob.SolvesPerSec)
	fmt.Fprintf(w, "naive:   %10.1f ms  (%.1f ms per independent solve × %d candidates, speed-up %.2f×)\n",
		ob.NaiveMs, ob.NaivePerCandidateMs, ob.Requested, ob.Speedup)
	fmt.Fprintf(w, "deterministic across worker counts: %v\n", ob.Deterministic)
	if jsonPath == "" {
		return nil
	}
	if err := fsio.WriteFile(jsonPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(ob)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "JSON written to", jsonPath)
	return nil
}
