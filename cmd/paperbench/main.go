// Command paperbench regenerates every table and figure of the paper's
// evaluation on the reproduced system and prints them side by side with the
// published values. See EXPERIMENTS.md for the recorded comparison.
//
// Examples:
//
//	paperbench                  # everything, full fidelity (minutes)
//	paperbench -quick           # everything, reduced series tolerance
//	paperbench -exp table5.1    # a single experiment
//	paperbench -exp fig5.2 -out figures/   # also write CSV + SVG artifacts
//
// Experiments: barbera, table5.1, table6.1, table6.2, table6.3, fig5.1,
// fig5.2, fig5.3, fig5.4, fig6.1, sweep, hmatrix, optimize, ablation-tol,
// ablation-solver, ablation-elements, ablation-threelayer, ablation-grading,
// baseline-fdm, all.
//
// The sweep experiment benchmarks the multi-scenario batch engine (3
// Balaidos soils × 3 GPR values) against a sequential Analyze loop. The
// hmatrix experiment sweeps the compressed solver over a 1k–20k DoF ladder
// of interconnected grids against the extrapolated dense cost. The optimize
// experiment benchmarks the grid-synthesis design loop on a Balaidos-class
// site against naive per-candidate solves. These three record JSON: with
// -json P and -exp naming exactly one of them, the record is written to P
// (BENCH_sweep.json, BENCH_hmatrix.json and BENCH_optimize.json in the repo
// convention); -json with any other -exp is an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"earthing/internal/experiments"
	"earthing/internal/fsio"
	"earthing/internal/grid"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// run parses args and executes the selected experiments, writing tables to
// stdout. Factored out of main so the end-to-end tests can drive the CLI
// in-process against golden transcripts.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment id (see doc comment)")
		quick   = fs.Bool("quick", false, "reduced fidelity (series tol 1e-4)")
		out     = fs.String("out", "", "directory for figure artifacts (CSV/SVG)")
		procs   = fs.String("procs", "1,2,4,8", "worker counts for the parallel tables")
		repeats = fs.Int("repeats", 1, "timing repetitions (paper used min of 4)")
		jsonOut = fs.String("json", "", "benchmark JSON path for -exp sweep, hmatrix or optimize (e.g. BENCH_optimize.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	q := experiments.Default()
	if *quick {
		q = experiments.Quick()
	}
	if *repeats < 1 {
		return fmt.Errorf("-repeats %d must be at least 1", *repeats)
	}
	if *jsonOut != "" && !jsonExperiments[*exp] {
		return fmt.Errorf("-json needs -exp sweep, hmatrix or optimize, not %q", *exp)
	}
	q.Repeats = *repeats

	workers, err := parseProcs(*procs)
	if err != nil {
		return err
	}
	return runExperiments(ctx, stdout, *exp, q, workers, *out, *jsonOut)
}

// jsonExperiments are the experiments that record a -json benchmark file.
var jsonExperiments = map[string]bool{"sweep": true, "hmatrix": true, "optimize": true}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -procs entry %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func runExperiments(ctx context.Context, w io.Writer, exp string, q experiments.Quality, workers []int, out, jsonOut string) error {
	all := exp == "all"
	ran := false
	do := func(id string, f func() error) error {
		if !all && exp != id {
			return nil
		}
		ran = true
		return f()
	}

	steps := []struct {
		id string
		f  func() error
	}{
		{"fig5.1", func() error { return planFigure(w, out, "fig5.1-barbera.svg", grid.Barbera()) }},
		{"fig5.3", func() error { return planFigure(w, out, "fig5.3-balaidos.svg", grid.Balaidos()) }},
		{"barbera", func() error { return experiments.BarberaSummary(ctx, w, q, 0) }},
		{"table5.1", func() error { return experiments.Table51(ctx, w, q, 0) }},
		{"fig5.2", func() error { return experiments.Fig52(ctx, w, q, 0, out, 0, 0) }},
		{"fig5.4", func() error { return experiments.Fig54(ctx, w, q, 0, out, 0, 0) }},
		{"table6.1", func() error { return experiments.Table61(ctx, w, q) }},
		{"fig6.1", func() error { return experiments.Fig61(ctx, w, q, workers) }},
		{"sweep", func() error { return experiments.SweepEngine(ctx, w, q, 0, jsonOut) }},
		{"hmatrix", func() error { return experiments.HMatrixScaling(ctx, w, q, 0, jsonOut) }},
		{"optimize", func() error { return experiments.OptimizeLoop(ctx, w, q, 0, jsonOut) }},
		{"table6.2", func() error { return experiments.Table62(ctx, w, q, workers) }},
		{"table6.3", func() error { return experiments.Table63(ctx, w, q, workers) }},
		{"ablation-tol", func() error { return experiments.AblationSeriesTol(ctx, w, 0) }},
		{"ablation-solver", func() error { return experiments.AblationSolver(ctx, w, q) }},
		{"ablation-elements", func() error { return experiments.AblationElements(ctx, w) }},
		{"ablation-threelayer", func() error { return experiments.AblationThreeLayer(ctx, w) }},
		{"baseline-fdm", func() error { return experiments.BaselineFDM(ctx, w) }},
		{"ablation-grading", func() error { return experiments.AblationGrading(ctx, w, q) }},
	}
	for _, s := range steps {
		if err := do(s.id, s.f); err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// planFigure draws a grid plan SVG (Figures 5.1 and 5.3). Without -out it
// just summarises the plan on stdout.
func planFigure(w io.Writer, dir, name string, g *grid.Grid) error {
	//lint:ignore errdrop transcript status line; a failed console write has no recovery path
	fmt.Fprintf(w, "\n== %s: %d conductors (%d rods), bounds %.0f x %.0f m ==\n",
		name, len(g.Conductors), g.NumRods(), g.Bounds().Size().X, g.Bounds().Size().Y)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return fsio.WriteFile(filepath.Join(dir, name), func(f io.Writer) error {
		return experiments.PlanSVG(f, g)
	})
}
