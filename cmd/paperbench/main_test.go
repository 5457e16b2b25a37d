package main

import (
	"bytes"
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
	if err := run([]string{"-exp", "barbera", "-quick", "-procs", "1"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, "paperbench-barbera-quick", buf.String())
}

// TestGoldenPlanFigures pins the grid-plan summaries (conductor counts and
// bounds of the two substations).
func TestGoldenPlanFigures(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig5.1"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-exp", "fig5.3"}, &buf); err != nil {
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
	if err := run([]string{"-exp", "sweep", "-quick", "-json", jsonPath}, &buf); err != nil {
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

// TestAssemblyBenchSmoke drives the -exp assembly benchmark end to end at
// quick fidelity and checks the recorded JSON: both Balaidos soil cases must
// be present, the blocked factorization must reproduce the reference
// solution bit for bit, the flat/mixed paths must hold the 1e-10 relative
// Req contract, and the headline (soil C) combined path must come out ahead.
func TestAssemblyBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full Balaidos assemblies")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_assembly.json")
	var buf bytes.Buffer
	if err := run([]string{"-exp", "assembly", "-quick", "-json", jsonPath}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var ab struct {
		CombinedSpeedup float64 `json:"combined_speedup"`
		Cases           []struct {
			Soil                string  `json:"soil"`
			DoF                 int     `json:"dof"`
			BlockedBitIdentical bool    `json:"blocked_bit_identical"`
			ReqReference        float64 `json:"req_reference_ohm"`
			MaxAbsDiffReqFlat   float64 `json:"max_abs_diff_req_flat_ohm"`
			MaxAbsDiffReqMixed  float64 `json:"max_abs_diff_req_mixed_ohm"`
		} `json:"cases"`
	}
	if err := json.Unmarshal(data, &ab); err != nil {
		t.Fatal(err)
	}
	if len(ab.Cases) != 2 || ab.Cases[0].Soil != "C" || ab.Cases[1].Soil != "B" {
		t.Fatalf("unexpected case set: %+v", ab.Cases)
	}
	for _, c := range ab.Cases {
		if c.DoF == 0 {
			t.Errorf("soil %s: empty discretization", c.Soil)
		}
		if !c.BlockedBitIdentical {
			t.Errorf("soil %s: blocked factorization not bit-identical", c.Soil)
		}
		if tol := 1e-10 * c.ReqReference; c.MaxAbsDiffReqFlat > tol || c.MaxAbsDiffReqMixed > tol {
			t.Errorf("soil %s: |ΔReq| flat %g / mixed %g exceeds 1e-10 relative (%g)",
				c.Soil, c.MaxAbsDiffReqFlat, c.MaxAbsDiffReqMixed, tol)
		}
	}
	if ab.CombinedSpeedup <= 1.2 {
		t.Errorf("flat+blocked path not ahead of reference: speedup %.2f", ab.CombinedSpeedup)
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
	if err := run([]string{"-exp", "hmatrix", "-quick", "-json", jsonPath}, &buf); err != nil {
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

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-exp", "nonesuch"},
		{"-procs", "0"},
		{"-procs", "1,x"},
		{"-repeats", "0"},
		{"stray"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
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
	if err := run([]string{"-exp", "optimize", "-quick", "-json", jsonPath}, &buf); err != nil {
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

// TestFieldEvalBenchSmoke drives the -exp fieldeval benchmark end to end at
// quick fidelity and checks the recorded JSON: the batched engine must
// reproduce the legacy per-point potentials on the whole Figure 5.4 surface
// raster within 1e-10 and come out ahead of them on single-thread time.
func TestFieldEvalBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates a 2464-point raster through the legacy path")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_field_eval.json")
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fieldeval", "-quick", "-json", jsonPath}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var fb struct {
		Points     int     `json:"points"`
		LegacyNs   float64 `json:"legacy_ns_per_point"`
		BatchNs    float64 `json:"batch_ns_per_point"`
		MaxAbsDiff float64 `json:"max_abs_diff"`
	}
	if err := json.Unmarshal(data, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Points == 0 {
		t.Fatal("empty raster")
	}
	if fb.MaxAbsDiff > 1e-10 {
		t.Errorf("batch vs legacy max |ΔV| = %g, want ≤ 1e-10", fb.MaxAbsDiff)
	}
	if fb.BatchNs >= fb.LegacyNs {
		t.Errorf("batch engine not faster than legacy: %.0f vs %.0f ns/point", fb.BatchNs, fb.LegacyNs)
	}
}
