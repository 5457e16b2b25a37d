package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: p95 needs n ≥ 200, p99 needs n ≥ 1000.
const minBeyond = 10

// minSamples is the smallest sample count at which percentile q (in (0, 1))
// has minBeyond samples beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of xs, and false when fewer
// than minBeyond samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 || len(xs) < minSamples(q) {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], true
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), which is how run-to-run spreads are judged.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), nil
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	return (q3 - q1) / math.Abs(median(xs)), nil
}
