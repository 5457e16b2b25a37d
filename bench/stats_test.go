package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// TestPercentileRule pins the reporting rule: a percentile needs at least ten
// samples beyond it, so p95 needs n ≥ 200 and p99 needs n ≥ 1000.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.75, 40}, {0.9, 100}, {0.95, 200}, {0.99, 1000}} {
		if got := minSamples(c.q); got != c.need {
			t.Errorf("minSamples(%g) = %d, want %d", c.q, got, c.need)
		}
		if _, ok := percentile(seq(c.need-1), c.q); ok {
			t.Errorf("p%g reported with n = %d", 100*c.q, c.need-1)
		}
		v, ok := percentile(seq(c.need), c.q)
		if !ok {
			t.Errorf("p%g withheld with n = %d", 100*c.q, c.need)
		}
		if beyond := c.need - int(v); beyond != minBeyond {
			t.Errorf("p%g of 1..%d = %g leaves %d samples beyond, want %d", 100*c.q, c.need, v, beyond, minBeyond)
		}
	}
}

// TestQuartilesMatchPython checks the quartiles against Python's
// statistics.quantiles(xs, n=4), the rule the run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(2), 0.75, 2.25},
		{seq(3), 1, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
