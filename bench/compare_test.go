package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestJudgeVerdicts covers the four -compare verdicts in both directions.
func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name          string
		base, cur     []float64
		lowerIsBetter bool
		want          string
	}{
		{"same", steady, steady, true, unchanged},
		{"small shift", steady, scaled(steady, 1.05), true, unchanged},
		{"slower", steady, scaled(steady, 1.2), true, regressed},
		{"faster", steady, scaled(steady, 0.9), true, improved},
		{"throughput down", steady, scaled(steady, 0.8), false, regressed},
		{"throughput up", steady, scaled(steady, 1.1), false, improved},
		{"noisy base", noisy, steady, true, unresolved},
		{"noisy new", steady, noisy, false, unresolved},
		{"noisy but every run faster", noisy, scaled(noisy, 0.3), true, improved},
		{"noisy but every run slower", noisy, scaled(noisy, 3), true, regressed},
		// Every new run beats every base run, but the median gain is smaller
		// than the base's interquartile range.
		{"every run faster by less than the base spread",
			[]float64{100, 100, 100, 100, 100, 130, 130, 130, 130, 130},
			[]float64{98.5, 98.6, 98.7, 98.8, 98.9, 99, 99.1, 99.2, 99.3, 99.4}, true, unchanged},
		// The median moves by more than the base's interquartile range, but
		// only 65 % of the (base, new) pairs favour the new runs.
		{"median gain without the pairs", steady, []float64{98.9, 99, 99.1, 99.2, 99.3, 99.3, 99.4, 100.8, 101, 101.2}, true, unchanged},
	} {
		got, err := judge(c.base, c.cur, c.lowerIsBetter, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.verdict, c.want, got)
		}
	}
	if _, err := judge([]float64{1}, steady, true, 0.1); err == nil {
		t.Error("one base run cannot give a spread")
	}
}

// TestCompareCommand runs -compare on two record files and checks the
// printed verdict and the exit code of a regression.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, factor float64) string {
		var b bytes.Buffer
		for i, v := range []float64{100, 101, 99, 100, 100} {
			line, err := json.Marshal(record{Workload: "cold-solve", Seed: int64(i), Metrics: map[string]metric{
				"latency_p50_ms": {Value: v * factor, Unit: "ms"}}})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, slow := write("base.jsonl", 1), write("slow.jsonl", 1.3)
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", "-spec", spec, base, base}, &out, &errOut); code != 0 || !strings.Contains(out.String(), unchanged) {
		t.Fatalf("self-compare: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"-compare", "-spec", spec, base, slow}, &out, &errOut); code != 1 || !strings.Contains(out.String(), regressed) {
		t.Fatalf("regression: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}
