package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict labels of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is the judgement of one metric on one workload.
type comparison struct {
	baseMedian, curMedian float64
	baseSpread, curSpread float64 // interquartile range over median
	verdict               string
}

// judge compares two sets of runs of one metric:
//
//   - unresolved when either side's spread is wider than the bound, unless
//     every new run reads better than every base run, or every one worse;
//     then the two sets do not overlap and the rules below still apply;
//   - improved when the new median is better than the base median by more
//     than the base's interquartile range and at least nine tenths of all
//     (base, new) pairs favour the new run;
//   - regressed when the new median is worse than the base median by more
//     than the bound;
//   - unchanged otherwise.
func judge(base, cur []float64, lowerIsBetter bool, bound float64) (comparison, error) {
	c := comparison{baseMedian: median(base), curMedian: median(cur)}
	q1, q3, err := quartiles(base)
	if err != nil {
		return c, err
	}
	c.baseSpread = (q3 - q1) / math.Abs(c.baseMedian)
	if c.curSpread, err = spread(cur); err != nil {
		return c, err
	}
	better := func(x, than float64) bool {
		if lowerIsBetter {
			return x < than
		}
		return x > than
	}
	wins, losses, pairs := 0, 0, len(base)*len(cur)
	for _, b := range base {
		for _, x := range cur {
			if better(x, b) {
				wins++
			} else if better(b, x) {
				losses++
			}
		}
	}
	gain := (c.curMedian - c.baseMedian) / math.Abs(c.baseMedian) // positive: the new median is higher
	if lowerIsBetter {
		gain = -gain
	}
	switch {
	case (c.baseSpread > bound || c.curSpread > bound) && wins < pairs && losses < pairs:
		c.verdict = unresolved
	case gain*math.Abs(c.baseMedian) > q3-q1 && float64(wins) >= 0.9*float64(pairs):
		c.verdict = improved
	case gain < -bound:
		c.verdict = regressed
	default:
		c.verdict = unchanged
	}
	return c, nil
}

// runCompare applies BENCHMARK.json's bounds to two -out files and prints
// one verdict per workload × end-to-end metric. It exits 1 when any metric
// regressed.
func runCompare(specPath, basePath, curPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	data, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		return fail(stderr, 2, "read %s: %v", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	cur, err := readRecords(curPath)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	code := 0
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%-12s %-18s %12s %7s %12s %7s %8s  %s\n",
		"workload", "metric", "base", "spread", "new", "spread", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			b, c := base[wl.name][m.Name], cur[wl.name][m.Name]
			if len(b) == 0 && len(c) == 0 {
				continue
			}
			j, err := judge(b, c, m.Better == "lower", m.Bound)
			if err != nil {
				fmt.Fprintf(w, "%-12s %-18s %v\n", wl.name, m.Name, err)
				code = 1
				continue
			}
			if j.verdict == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-18s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%%  %s (bound %g%%, n=%d/%d)\n",
				wl.name, m.Name, j.baseMedian, 100*j.baseSpread, j.curMedian, 100*j.curSpread,
				100*(j.curMedian-j.baseMedian)/math.Abs(j.baseMedian), j.verdict, 100*m.Bound, len(b), len(c))
		}
	}
	if err := w.Flush(); err != nil {
		return 2
	}
	return code
}

// readRecords loads a -out file into workload → metric → values, skipping
// traced runs (their metrics are per-layer).
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errdrop read-only descriptor; Close cannot lose data already read
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}
