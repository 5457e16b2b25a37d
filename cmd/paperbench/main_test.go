package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden transcripts")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("..", "..", "artifacts", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("transcript differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenBarbera pins the §5.1 comparison table: our Req/current next to
// the published values. The -quick fidelity and a single worker keep the run
// fast and bit-reproducible; the numbers themselves are what the paper
// reproduction is graded on.
func TestGoldenBarbera(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "barbera", "-quick", "-procs", "1"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, "paperbench-barbera-quick", buf.String())
}

// TestGoldenPlanFigures pins the grid-plan summaries (conductor counts and
// bounds of the two substations).
func TestGoldenPlanFigures(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "fig5.1"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(context.Background(), []string{"-exp", "fig5.3"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, "paperbench-plan-figures", buf.String())
}

// TestSweepBenchSmoke drives the -exp sweep benchmark end to end at quick
// fidelity and checks the recorded JSON: the batch side must assemble one
// system per soil model (3 of 9 scenarios), match the sequential loop bit
// for bit, and come out ahead on wall time.
func TestSweepBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 9-scenario Balaidos workload twice")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "sweep", "-quick", "-json", jsonPath}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sb struct {
		Scenarios            int     `json:"scenarios"`
		SequentialAssemblies int     `json:"sequential_assemblies"`
		SweepAssemblies      int     `json:"sweep_assemblies"`
		Speedup              float64 `json:"speedup"`
		BitIdentical         bool    `json:"bit_identical"`
	}
	if err := json.Unmarshal(data, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Scenarios != 9 || sb.SequentialAssemblies != 9 || sb.SweepAssemblies != 3 {
		t.Errorf("assembly accounting off: %+v", sb)
	}
	if !sb.BitIdentical {
		t.Error("sweep results not bit-identical to sequential Analyze")
	}
	if sb.Speedup <= 1 {
		t.Errorf("sweep slower than sequential loop: speedup %.2f", sb.Speedup)
	}
}

// TestHMatrixBenchSmoke drives the compressed-solver scaling bench through
// the CLI on the quick smoke ladder and checks the record's structural and
// accuracy contracts (the full-ladder time/memory acceptance bars only hold
// at scale and are asserted by the committed BENCH_hmatrix.json run).
func TestHMatrixBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two compressed systems plus their dense references")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_hmatrix.json")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "hmatrix", "-quick", "-json", jsonPath}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var hb struct {
		Eps          float64 `json:"eps"`
		MaxReqRelErr float64 `json:"max_req_rel_err"`
		Rungs        []struct {
			DoF           int     `json:"dof"`
			CGIterations  int     `json:"cg_iterations"`
			LowRankBlocks int     `json:"low_rank_blocks"`
			DenseMeasured bool    `json:"dense_measured"`
			ReqHMatrix    float64 `json:"req_hmatrix_ohm"`
			ReqRelErr     float64 `json:"req_rel_err"`
		} `json:"rungs"`
	}
	if err := json.Unmarshal(data, &hb); err != nil {
		t.Fatal(err)
	}
	if len(hb.Rungs) != 2 {
		t.Fatalf("quick ladder has %d rungs, want 2", len(hb.Rungs))
	}
	for _, r := range hb.Rungs {
		if r.DoF == 0 || r.CGIterations == 0 || r.ReqHMatrix <= 0 {
			t.Errorf("rung %+v: incomplete compressed solve record", r)
		}
		if r.LowRankBlocks == 0 {
			t.Errorf("rung n=%d: no admissible blocks; partition degenerate", r.DoF)
		}
		if !r.DenseMeasured {
			t.Errorf("rung n=%d: quick ladder must measure the dense reference", r.DoF)
		}
	}
	if bar := 10 * hb.Eps; hb.MaxReqRelErr > bar {
		t.Errorf("max |ΔReq|/Req %.3g exceeds 10·ε = %.0e", hb.MaxReqRelErr, bar)
	}
}

// TestRunRejectsBadFlags also pins the -json rule: a record path is only
// accepted with exactly one JSON-recording experiment, so -exp all cannot
// overwrite one path with several records and a text-only experiment cannot
// silently write nothing. The retired twin-timing experiments are unknown.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-exp", "nonesuch"},
		{"-exp", "assembly"},
		{"-exp", "fieldeval"},
		{"-exp", "all", "-json", "x"},
		{"-exp", "table5.1", "-json", "x"},
		{"-exp", "barbera", "-json", "x"},
		{"-procs", "0"},
		{"-procs", "1,x"},
		{"-repeats", "0"},
		{"stray"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}

// TestOptimizeBenchSmoke drives the design-loop benchmark through the CLI at
// quick fidelity and checks the recorded JSON: the search must issue at
// least 200 candidate requests on the Balaidos-class site, amortize a
// meaningful share of them through the evaluation cache, reproduce the
// winner across worker counts, and come out ahead of naive per-candidate
// solves (the committed BENCH_optimize.json pins the ≥2× acceptance bar;
// the smoke bar is >1 to tolerate loaded CI machines).
func TestOptimizeBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 400-eval synthesis search twice plus the naive leg")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_optimize.json")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "optimize", "-quick", "-json", jsonPath}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var ob struct {
		Requested     int     `json:"requested"`
		Evaluated     int     `json:"evaluated"`
		CacheHits     int     `json:"cache_hits"`
		HitRate       float64 `json:"hit_rate"`
		Feasible      bool    `json:"feasible"`
		Speedup       float64 `json:"speedup"`
		Deterministic bool    `json:"deterministic"`
	}
	if err := json.Unmarshal(data, &ob); err != nil {
		t.Fatal(err)
	}
	if ob.Requested < 200 {
		t.Errorf("only %d candidates requested, want ≥ 200", ob.Requested)
	}
	if ob.Requested != ob.Evaluated+ob.CacheHits {
		t.Errorf("candidate accounting off: %+v", ob)
	}
	if ob.HitRate <= 0 {
		t.Error("no cache amortization measured")
	}
	if !ob.Feasible {
		t.Error("search found no feasible design on the benchmark site")
	}
	if !ob.Deterministic {
		t.Error("winner not reproduced across worker counts")
	}
	if ob.Speedup <= 1 {
		t.Errorf("design loop slower than naive solves: speedup %.2f", ob.Speedup)
	}
}
