package sched

import "fmt"

// Simulate computes the makespan of running n weighted loop cycles under a
// schedule on p *ideal* workers: every worker executes one unit of work per
// unit of time, chunk hand-off is free, and for demand-driven schedules each
// chunk goes to the worker that becomes free first.
//
// It returns the per-worker loads and the makespan (the maximum load plus,
// for demand-driven kinds, the serialization implied by assignment order).
// The predicted speed-up Sum(work)/makespan is the host-independent
// load-balance quantity behind the paper's Table 6.2: e.g. for the
// element-pair triangle (linearly decreasing cycle sizes) and schedule
// static with no chunk, the worker owning the largest columns carries
// 1 − ((p−1)/p)² of the work, reproducing the paper's measured 1.32 / 2.32 /
// 4.38 speed-ups at p = 2 / 4 / 8 almost exactly.
//
// work[i] is the cost of cycle i in arbitrary units; cycles are handed out
// in index order, matching ForStatsCtx.
func Simulate(work []int64, p int, s Schedule) (makespan int64, perWorker []int64) {
	n := len(work)
	if p <= 0 {
		panic("sched: Simulate needs p ≥ 1")
	}
	if p > n {
		p = n
	}
	if n == 0 {
		return 0, nil
	}
	loads := make([]int64, p)
	if p == 1 {
		for _, w := range work {
			loads[0] += w
		}
		return loads[0], loads
	}

	// chunkAt yields the cycle-index ranges in hand-off order.
	assignGreedy := func(chunks [][2]int) {
		// Demand-driven: each chunk goes to the earliest-free worker.
		for _, c := range chunks {
			w := 0
			for i := 1; i < p; i++ {
				if loads[i] < loads[w] {
					w = i
				}
			}
			for k := c[0]; k < c[1]; k++ {
				loads[w] += work[k]
			}
		}
	}

	switch s.Kind {
	case Static:
		if s.Chunk < 1 {
			// Contiguous equal-count blocks.
			for w := 0; w < p; w++ {
				for k := w * n / p; k < (w+1)*n/p; k++ {
					loads[w] += work[k]
				}
			}
		} else {
			// Fixed chunks dealt round-robin.
			for base, c := 0, 0; base < n; base, c = base+s.Chunk, c+1 {
				hi := base + s.Chunk
				if hi > n {
					hi = n
				}
				w := c % p
				for k := base; k < hi; k++ {
					loads[w] += work[k]
				}
			}
		}
	case Dynamic:
		c := s.Chunk
		if c < 1 {
			c = 1
		}
		var chunks [][2]int
		for base := 0; base < n; base += c {
			hi := base + c
			if hi > n {
				hi = n
			}
			chunks = append(chunks, [2]int{base, hi})
		}
		assignGreedy(chunks)
	case Guided:
		minC := s.Chunk
		if minC < 1 {
			minC = 1
		}
		var chunks [][2]int
		next := 0
		for next < n {
			remaining := n - next
			size := (remaining + 2*p - 1) / (2 * p)
			if size < minC {
				size = minC
			}
			hi := next + size
			if hi > n {
				hi = n
			}
			chunks = append(chunks, [2]int{next, hi})
			next = hi
		}
		assignGreedy(chunks)
	default:
		panic(fmt.Sprintf("sched: Simulate: unsupported schedule kind %v", s.Kind))
	}

	for _, l := range loads {
		if l > makespan {
			makespan = l
		}
	}
	return makespan, loads
}

// PredictSpeedup returns Sum(work)/makespan for the schedule on p ideal
// workers — the wall-clock speed-up a perfectly parallel machine with p
// cores would achieve.
func PredictSpeedup(work []int64, p int, s Schedule) float64 {
	if len(work) == 0 {
		return 1
	}
	makespan, _ := Simulate(work, p, s)
	if makespan == 0 {
		return 1
	}
	var total int64
	for _, w := range work {
		total += w
	}
	return float64(total) / float64(makespan)
}

// TriangleWork returns the cycle costs of the BEM matrix-generation outer
// loop over m elements in largest-first order: cycle i couples element
// β = m−1−i with all α ≤ β, costing β+1 pair evaluations.
func TriangleWork(m int) []int64 {
	w := make([]int64, m)
	for i := range w {
		w[i] = int64(m - i)
	}
	return w
}
