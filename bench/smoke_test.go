package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestQuickWorkloads runs every workload at toy sizes, untraced and traced,
// and checks that the answers pass their correctness checks and that each
// run reports exactly its metric set.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 3, quick: true, tmp: t.TempDir()}
			o := runOptions{setups: 1, traced: traced}
			want := endToEnd
			if traced {
				o.spans = filepath.Join(t.TempDir(), "spans.json")
				want = perLayer
			}
			rec, err := runWorkload(ctx, w, e, o)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d %v",
					w.name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Checks)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rec.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
			if traced {
				if _, err := os.Stat(o.spans); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
}

// flaky is an instance whose operations fail except every failEvery-th.
type flaky struct{ failEvery int }

func (f *flaky) op(_ context.Context, i int, _ *tracer) opResult {
	if f.failEvery == 0 || i%f.failEvery != 0 {
		return opResult{err: fmt.Errorf("status 503")}
	}
	return opResult{}
}
func (f *flaky) verify(context.Context) (verdict, error) {
	return verdict{checked: 1, note: "nothing to compare"}, nil
}
func (f *flaky) replayInputs() ([]replayInput, error)                 { return nil, nil }
func (f *flaky) counters(context.Context) (map[string]float64, error) { return nil, nil }
func (f *flaky) close(context.Context) error                          { return nil }

// TestFailingRunReports runs a workload whose operations mostly or all fail:
// the run must still print its checks with the first failure, write its
// record and end with a summary line that says it is incorrect.
func TestFailingRunReports(t *testing.T) {
	for _, failEvery := range []int{10, 0} {
		w := workload{name: "flaky", clients: 1, tail: 0.95, minOps: 40,
			setup: func(context.Context, *env) (instance, error) { return &flaky{failEvery}, nil }}
		rec, err := runWorkload(context.Background(), w, &env{seed: 1}, runOptions{setups: 1})
		if err != nil {
			t.Fatalf("failEvery=%d: %v", failEvery, err)
		}
		var out bytes.Buffer
		records := filepath.Join(t.TempDir(), "runs.jsonl")
		if err := report(rec, records, &out); err != nil {
			t.Fatalf("failEvery=%d: report: %v", failEvery, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if !regexp.MustCompile(`# check .*first failure: op [01]: status 503`).MatchString(out.String()) {
			t.Errorf("failEvery=%d: no check line with the first failure:\n%s", failEvery, out.String())
		}
		var sum struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]any
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("failEvery=%d: last line %q: %v", failEvery, lines[len(lines)-1], err)
		}
		wantFailed := 40
		if failEvery > 0 {
			wantFailed = 36
		}
		if sum.Correct || sum.Attempted != 40 || sum.Failed != wantFailed {
			t.Errorf("failEvery=%d: summary %+v, want incorrect with %d of 40 failed", failEvery, sum, wantFailed)
		}
		if _, ok := sum.Metrics["latency_tail_ms"]; ok {
			t.Errorf("failEvery=%d: p95 reported from %d successes", failEvery, 40-wantFailed)
		}
		if _, err := os.Stat(records); err != nil {
			t.Errorf("failEvery=%d: record not written: %v", failEvery, err)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload lists of this command in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the command", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command", c.kind, len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the command",
					c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
