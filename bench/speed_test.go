package main

import (
	"runtime"
	"testing"
	"time"
)

// TestThreadCPUStopsWhileWaiting pins the premise of the host-speed
// samples: the thread clock advances while the thread computes and not
// while it waits.
func TestThreadCPUStopsWhileWaiting(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	t1, err := threadCPU()
	if err != nil {
		t.Fatal(err)
	}
	if slept := t1 - t0; slept > 10*time.Millisecond {
		t.Errorf("thread clock advanced %v during a 50ms sleep", slept)
	}
	refLoop(make([]uint32, refTableLen))
	t2, err := threadCPU()
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= t1 {
		t.Errorf("thread clock did not advance over the reference loop: %v → %v", t1, t2)
	}
}

// TestSpeedProbe checks that the sampler samples until closed, that closing
// twice is harmless, and that the factor is refNominal over the median.
func TestSpeedProbe(t *testing.T) {
	p := startSpeedProbe()
	time.Sleep(3 * refEvery)
	p.close()
	p.close()
	f, med, n, err := p.factor()
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 || med <= 0 {
		t.Fatalf("%d samples with median %v, want at least 2 and a positive median", n, med)
	}
	if want := float64(refNominal) / float64(med); f != want {
		t.Errorf("factor = %g, want refNominal/median = %g", f, want)
	}
	time.Sleep(2 * refEvery)
	if _, _, after, _ := p.factor(); after != n {
		t.Errorf("%d samples after close, then %d: the sampler kept running", n, after)
	}
}
