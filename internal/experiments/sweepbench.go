package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"earthing/internal/core"
	"earthing/internal/fsio"
	"earthing/internal/grid"
	"earthing/internal/soil"
	"earthing/internal/sweep"
)

// SweepBench records the batch-solve benchmark on the Balaidos grid: the
// three §5.2 soil models × three GPR values solved one Analyze at a time
// against a single sweep.Run at the same worker width. The sweep assembles
// one system per distinct soil model and serves the GPR variants from the
// solve-reuse tier, so at 3×3 scenarios it performs a third of the
// sequential assemblies. Wall times are minima over Quality.Repeats.
type SweepBench struct {
	// Scenarios = Models × GPRs.
	Scenarios int `json:"scenarios"`
	Models    int `json:"models"`
	GPRs      int `json:"gprs"`
	// Elements and DoF describe the shared Balaidos discretization.
	Elements int `json:"elements"`
	DoF      int `json:"dof"`
	// Workers is the parallel width both sides run at.
	Workers int `json:"workers"`

	// SequentialMs is the wall time of the Analyze-per-scenario loop;
	// SequentialAssemblies its assembly count (= Scenarios).
	SequentialMs         float64 `json:"sequential_ms"`
	SequentialAssemblies int     `json:"sequential_assemblies"`
	// SweepMs is the wall time of the single sweep.Run; SweepAssemblies its
	// assembly count (= Models).
	SweepMs         float64 `json:"sweep_ms"`
	SweepAssemblies int     `json:"sweep_assemblies"`
	// Speedup = SequentialMs / SweepMs (acceptance bar: ≥ 1.5).
	Speedup float64 `json:"speedup"`

	// BitIdentical reports whether every swept Req and Current equals its
	// sequential counterpart bit for bit (the correctness half of the
	// acceptance criterion; MaxAbsDiffReq must then be exactly 0).
	BitIdentical  bool    `json:"bit_identical"`
	MaxAbsDiffReq float64 `json:"max_abs_diff_req"`
}

// sweepWorkload returns the benchmark scenarios: the three Balaidos soil
// models under one shared discretization (RodElements = 2, so all scenarios
// share a mesh and the comparison isolates assembly amortization) × three
// GPR values around the paper's 10 kV operating point.
func sweepWorkload() []sweep.Scenario {
	soils := []struct {
		name  string
		model soil.Model
	}{
		{"A", soil.NewUniform(0.020)},
		{"B", soil.NewTwoLayer(0.0025, 0.020, 0.7)},
		{"C", soil.NewTwoLayer(0.0025, 0.020, 1.0)},
	}
	gprs := []float64{5_000, 10_000, 15_000}
	var scens []sweep.Scenario
	for _, s := range soils {
		for _, gpr := range gprs {
			scens = append(scens, sweep.Scenario{
				ID:   fmt.Sprintf("%s-%.0fkV", s.name, gpr/1000),
				Soil: s.model,
				GPR:  gpr,
			})
		}
	}
	return scens
}

// RunSweepBench measures the sweep engine against the sequential baseline,
// honouring ctx cancellation in both legs. workers ≤ 0 selects GOMAXPROCS on
// both sides.
func RunSweepBench(ctx context.Context, q Quality, workers int) (SweepBench, error) {
	q = q.withDefaults()
	g := grid.Balaidos()
	scens := sweepWorkload()
	cfg := core.Config{
		RodElements: 2,
		BEM:         q.bemOptions(workers),
	}
	out := SweepBench{
		Scenarios: len(scens),
		Models:    3,
		GPRs:      3,
	}

	seqRes := make([]*core.Result, len(scens))
	seqWall, err := minDuration(q.Repeats, func() (time.Duration, error) {
		t0 := time.Now()
		for i, sc := range scens {
			scfg := cfg
			scfg.GPR = sc.GPR
			res, err := core.AnalyzeCtx(ctx, g, sc.Soil, scfg)
			if err != nil {
				return 0, err
			}
			seqRes[i] = res
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return out, err
	}

	var swept []sweep.Result
	sweepWall, err := minDuration(q.Repeats, func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		swept, err = sweep.Run(ctx, g, scens, sweep.Options{Config: cfg})
		if err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return out, err
	}

	out.Elements = len(seqRes[0].Mesh.Elements)
	out.DoF = len(seqRes[0].Sigma)
	out.Workers = seqRes[0].LoopStats.Workers
	out.SequentialAssemblies = len(scens)
	out.BitIdentical = true
	for i, r := range swept {
		if r.Reuse == sweep.ReuseAssembled {
			out.SweepAssemblies++
		}
		if d := r.Res.Req - seqRes[i].Req; d != 0 {
			out.BitIdentical = false
			if d < 0 {
				d = -d
			}
			if d > out.MaxAbsDiffReq {
				out.MaxAbsDiffReq = d
			}
		}
		//lint:ignore floatcmp bit-identity is the measured property: the sweep must reproduce the sequential current exactly
		if r.Res.Current != seqRes[i].Current {
			out.BitIdentical = false
		}
	}
	out.SequentialMs = float64(seqWall.Nanoseconds()) / 1e6
	out.SweepMs = float64(sweepWall.Nanoseconds()) / 1e6
	out.Speedup = out.SequentialMs / out.SweepMs
	return out, nil
}

// SweepEngine prints the sweep benchmark and, when jsonPath is non-empty,
// writes the SweepBench record there as JSON (BENCH_sweep.json in the repo
// convention).
func SweepEngine(ctx context.Context, out io.Writer, q Quality, workers int, jsonPath string) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	sb, err := RunSweepBench(ctx, q, workers)
	if err != nil {
		return err
	}
	header(w, "Sweep engine — Balaidos 3 soils × 3 GPR, sequential vs batched")
	fmt.Fprintf(w, "%d scenarios (%d models × %d GPR values), %d elements, %d DoF, %d workers\n",
		sb.Scenarios, sb.Models, sb.GPRs, sb.Elements, sb.DoF, sb.Workers)
	fmt.Fprintf(w, "sequential Analyze loop: %10.1f ms  (%d assemblies)\n",
		sb.SequentialMs, sb.SequentialAssemblies)
	fmt.Fprintf(w, "sweep.Run batch:         %10.1f ms  (%d assemblies, speed-up %.2f×)\n",
		sb.SweepMs, sb.SweepAssemblies, sb.Speedup)
	fmt.Fprintf(w, "bit-identical Req/Current: %v (max |ΔReq| %.3g Ω)\n",
		sb.BitIdentical, sb.MaxAbsDiffReq)
	if jsonPath == "" {
		return nil
	}
	if err := fsio.WriteFile(jsonPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(sb)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "JSON written to", jsonPath)
	return nil
}
