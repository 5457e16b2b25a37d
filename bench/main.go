// Command bench is the repository's benchmark: four seeded workloads driven
// against the public surfaces — an in-process groundd over loopback TCP, and
// the earthing facade for the compressed tier groundd does not expose. An
// untraced run prints every end-to-end metric with its unit and sample
// count; a traced run (--trace 1) times each layer from outside and prints
// the per-layer metrics. Every run checks its answers and exits non-zero
// when one is wrong. The last line of standard output is a JSON summary.
//
//	bash bench/run.sh --workload cold-solve --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                   # all workloads, one process each
//	bash bench/run.sh -compare base.jsonl new.jsonl
//
// See bench/README.md for the workloads, the metric dictionary and the
// baselines.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// workloads is the benchmark, in the order an all-workloads run takes them.
// Each tail percentile is the highest one the workload's operation count
// supports; minOps guarantees at least ten samples beyond it.
var workloads = []workload{
	{name: "cold-solve", clients: 2, tail: 0.95, minOps: 300, setup: newColdSolve},
	{name: "warm-ladder", clients: 2, tail: 0.99, minOps: 2000, setup: newWarmLadder},
	{name: "design-loop", clients: 1, tail: 0.75, minOps: 40, setup: newDesignLoop},
	{name: "compressed", clients: 1, tail: 0.75, minOps: 40, setup: newCompressed},
}

// runDeadline bounds a whole run, set-ups and checks included.
const runDeadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	out := fs.String("out", "", "append the full run record to this JSON-lines file")
	quick := fs.Bool("quick", false, "toy input sizes, for a smoke run")
	compare := fs.Bool("compare", false, "compare two -out files: -compare base.jsonl new.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(stderr, 2, "usage: bench -compare base.jsonl new.jsonl")
		}
		return runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	var w *workload
	for k := range workloads {
		if workloads[k].name == *name {
			w = &workloads[k]
		}
	}
	if w == nil {
		return fail(stderr, 2, "unknown workload %q", *name)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fail(stderr, 1, "%v", err)
	}
	o := runOptions{
		window: time.Duration(*seconds * float64(time.Second)),
		setups: 3, setupBudget: 2 * time.Second,
		traced: *traceFlag == 1, spans: *spans,
	}
	if *quick {
		o.setups, o.setupBudget = 1, 0
	}
	if o.traced && o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	}
	rec, err := runWorkload(ctx, *w, &env{seed: *seed, quick: *quick, tmp: tmp}, o)
	if err != nil {
		return fail(stderr, 1, "%s: %v", w.name, err)
	}
	if err := report(rec, *out, stdout); err != nil {
		return fail(stderr, 1, "%v", err)
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// fail writes a diagnostic line and returns code. A diagnostic that cannot
// be written has no one left to report to, so the flush error is dropped.
func fail(stderr io.Writer, code int, format string, a ...any) int {
	w := bufio.NewWriter(stderr)
	fmt.Fprintf(w, format+"\n", a...)
	w.Flush()
	return code
}

// report prints the run for a reader, appends the record to the -out file
// and ends with the one-line JSON summary. The lines for the reader, the
// checks among them, are flushed before anything is marshalled.
func report(rec record, out string, stdout io.Writer) error {
	w := bufio.NewWriter(stdout)
	h := rec.Host
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%t\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Commit)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		label := ""
		if n == "latency_tail_ms" {
			label = " (" + rec.Tail + ")"
		}
		fmt.Fprintf(w, "%-12s %-26s %14.6g %-6s n=%d%s\n", rec.Workload, n, m.Value, m.Unit, m.N, label)
	}
	if len(rec.Layers) > 0 {
		fmt.Fprintln(w, "# self time per span (ms, traced pass + layer replay)")
		layers := make([]string, 0, len(rec.Layers))
		for n := range rec.Layers {
			layers = append(layers, n)
		}
		sort.Strings(layers)
		for _, n := range layers {
			fmt.Fprintf(w, "#   %-20s %12.3f\n", n, rec.Layers[n])
		}
	}
	for _, c := range rec.Checks {
		fmt.Fprintln(w, "# check", c)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return err
		}
	}
	metrics := map[string]map[string]any{}
	for n, m := range rec.Metrics {
		metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		//lint:ignore errdrop the write failure is the error reported
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own, so each
// workload's peak RSS is its own, and waits for each to exit.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		return fail(stderr, 1, "%v", err)
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			code = 1
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fail(stderr, 1, "%s: %v", w.name, err)
			}
		}
	}
	return code
}
