package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalisation.
//
// The benchmark runs on a few cores of a host it shares with other tenants,
// and the speed those cores give one program drifts over seconds, minutes
// and hours: the same single-threaded solve took 96 to 135 ms in successive
// 10 s windows, a whole workload ran 1.7 times slower in one set of runs
// than in another, and at any one moment one of the process's two cores can
// run a fixed loop twice as fast as the other. CPU time tracks wall time
// through all of it (there is next to no steal time), so neither CPU-time
// accounting nor longer runs take the drift out, and a median of wall times
// inherits it whole.
//
// So every timing the benchmark reports is scaled to one reference speed.
// Throughout a run a sampler times a fixed reference loop, on one locked
// thread per P at once, by the CPU time of each thread. That clock stops
// while a thread waits for a core, so the measured operations, the garbage
// collector and the hypervisor's steal do not reach it; what does is how
// fast the cores execute once they run — the drift above. A sample is the
// mean over the threads, so it covers every core the process runs on. The
// run's speed is the median of its samples, and a timing t is reported as
// t · refNominal / median.
//
// The loop has two phases of about equal length: a dependent chain of
// logarithms, square roots and divisions like the BEM kernel's, and a
// dependent pseudo-random walk that loads and stores over a table that
// fits a core's L2 but not its L1, like the server's maps and buffers.
// Compared over one ten-seed set of every workload (bench/README.md), this
// pair left the smallest worst-case run-to-run spread of the candidates
// that add no memory: smaller than either phase alone or the two
// interleaved in one chain. A third phase walking 32 MiB did only slightly
// better and would add 32 MiB to every workload's peak RSS. The loop
// belongs to the benchmark, so no change to the program makes it faster or
// slower.

// refNominal is the reference loop's duration at the reference speed.
// Timings are reported at that speed. It is a definition, not a measurement
// to update: changing it rescales every timing.
const refNominal = 2 * time.Millisecond

// refChainIters, refWalkIters and refTableLen size the two phases of the
// reference loop; refEvery is how often the sampler runs it. The sampler
// holds every P for one loop, about 1 % of the run.
const (
	refChainIters = 50_000
	refWalkIters  = 90_000
	refTableLen   = 1 << 16 // 256 KiB of uint32 per thread
	refEvery      = 200 * time.Millisecond
)

// speedProbe samples the host's speed in the background of a run.
type speedProbe struct {
	tables [][]uint32 // one per P
	stop   chan struct{}
	once   sync.Once
	done   chan struct{}

	mu      sync.Mutex
	samples []time.Duration // mean thread CPU time of one reference loop
	sink    uint64
	err     error // the first failure to read a thread's CPU time
}

// startSpeedProbe takes a first sample and starts sampling every refEvery
// until stopped.
func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		t := make([]uint32, refTableLen)
		for i := range t {
			t[i] = uint32(i+g) * 2654435761
		}
		p.tables = append(p.tables, t)
	}
	p.sample()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
	return p
}

// close stops the sampler and waits for it to end; later calls do nothing.
// The samples stay.
func (p *speedProbe) close() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

func (p *speedProbe) sample() {
	d, sum, err := timeRefLoop(p.tables)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sink += sum
	if err != nil && p.err == nil {
		p.err = err
	}
	if err == nil {
		p.samples = append(p.samples, d)
	}
}

// timeRefLoop runs the reference loop on one locked thread per table, all
// at once, and returns the mean CPU time a thread spent in it.
func timeRefLoop(tables [][]uint32) (time.Duration, uint64, error) {
	cpu := make([]time.Duration, len(tables))
	sums := make([]uint64, len(tables))
	errs := make([]error, len(tables))
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			before, err := threadCPU()
			if err != nil {
				errs[g] = err
				return
			}
			sums[g] = refLoop(tables[g])
			after, err := threadCPU()
			cpu[g], errs[g] = after-before, err
		}(g)
	}
	wg.Wait()
	var total time.Duration
	var sum uint64
	for g := range tables {
		if errs[g] != nil {
			return 0, 0, errs[g]
		}
		total += cpu[g]
		sum += sums[g]
	}
	return total / time.Duration(len(tables)), sum, nil
}

// threadCPU is the CPU time the calling thread has used, read from
// CLOCK_THREAD_CPUTIME_ID. getrusage(RUSAGE_THREAD) is no substitute: it
// lags the running thread by up to a scheduler tick.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("thread CPU time: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// refLoop is the reference work: a chain of logarithms, square roots and
// divisions, then a dependent pseudo-random walk that reads and writes
// table. It returns a value that depends on every step, so none is elided.
func refLoop(table []uint32) uint64 {
	x, s := 1.0, 0.0
	for i := 0; i < refChainIters; i++ {
		x = x*1.0000001 + 1e-9
		s += math.Log(x) * math.Sqrt(x+float64(i&7)) / (1 + x)
	}
	mask := uint32(len(table) - 1)
	j := uint32(1)
	for i := 0; i < refWalkIters; i++ {
		j = table[j&mask]*2654435761 + uint32(i)
		table[(j>>7)&mask] += j
	}
	return uint64(j) + math.Float64bits(s)
}

// factor is refNominal over the run's median sample: a timing times factor
// is that timing at the reference speed. It also returns the median and
// the number of samples.
func (p *speedProbe) factor() (f float64, med time.Duration, n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, 0, 0, p.err
	}
	xs := make([]float64, len(p.samples))
	for i, d := range p.samples {
		xs[i] = float64(d)
	}
	med = time.Duration(median(xs))
	return float64(refNominal) / float64(med), med, len(xs), nil
}
