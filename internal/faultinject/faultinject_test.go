package faultinject

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestFireInactive: with no hook installed anywhere, Fire is a no-op and
// Active reports false — the fast path production code rides on.
func TestFireInactive(t *testing.T) {
	Reset()
	if Active() {
		t.Fatal("Active() = true with no hooks installed")
	}
	data := []float64{1, 2, 3}
	Fire(AssemblyPair, 0, data)
	for i, v := range data {
		if v != float64(i+1) {
			t.Fatalf("Fire mutated data with no hook: %v", data)
		}
	}
}

// TestSetRestore: Set installs at one point only, the returned restore
// reinstates the previous hook (including "none"), and restores nest.
func TestSetRestore(t *testing.T) {
	Reset()
	calls := 0
	restore := Set(Solve, func(int, []float64) { calls++ })
	if !Active() {
		t.Fatal("Active() = false after Set")
	}
	Fire(Solve, 0, nil)
	Fire(CacheGet, 0, nil) // different point: must not invoke the hook
	if calls != 1 {
		t.Fatalf("hook fired %d times, want 1", calls)
	}

	inner := 0
	restoreInner := Set(Solve, func(int, []float64) { inner++ })
	Fire(Solve, 0, nil)
	if calls != 1 || inner != 1 {
		t.Fatalf("replacement hook: outer=%d inner=%d, want 1, 1", calls, inner)
	}
	restoreInner()
	Fire(Solve, 0, nil)
	if calls != 2 || inner != 1 {
		t.Fatalf("after inner restore: outer=%d inner=%d, want 2, 1", calls, inner)
	}
	restore()
	Fire(Solve, 0, nil)
	if calls != 2 {
		t.Fatalf("hook fired after restore: %d calls", calls)
	}
	if Active() {
		t.Fatal("Active() = true after full restore")
	}
}

// TestSetNilClears: Set(p, nil) removes the hook at p.
func TestSetNilClears(t *testing.T) {
	Reset()
	Set(Admission, Panic("boom"))
	Set(Admission, nil)
	Fire(Admission, 0, nil) // must not panic
	if Active() {
		t.Fatal("Active() = true after clearing the only hook")
	}
}

// TestReset removes every hook across points.
func TestReset(t *testing.T) {
	Set(Solve, Panic("a"))
	Set(CacheGet, Panic("b"))
	Reset()
	Fire(Solve, 0, nil)
	Fire(CacheGet, 0, nil)
	if Active() {
		t.Fatal("Active() = true after Reset")
	}
}

// TestPanicHook pins that Panic carries its message as the panic value.
func TestPanicHook(t *testing.T) {
	defer func() {
		if v := recover(); v != "injected fault" {
			t.Fatalf("panic value = %v, want %q", v, "injected fault")
		}
	}()
	Panic("injected fault")(0, nil)
}

// TestPoisonNaN writes NaN into data[0] and tolerates nil/empty buffers.
func TestPoisonNaN(t *testing.T) {
	h := PoisonNaN()
	data := []float64{4, 5}
	h(0, data)
	if !math.IsNaN(data[0]) || data[1] != 5 {
		t.Fatalf("PoisonNaN wrote %v, want [NaN 5]", data)
	}
	h(0, nil) // must not panic
}

// TestCountedExactlyOnce: under concurrent firing, Counted(n) invokes the
// wrapped hook on exactly the n-th call — one worker takes the fault.
func TestCountedExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	h := Counted(10, func(int, []float64) {
		mu.Lock()
		hits++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				h(k, nil)
			}
		}()
	}
	wg.Wait()
	if hits != 1 {
		t.Fatalf("Counted(10) fired %d times over 200 calls, want 1", hits)
	}
}

// TestAt fires only on the matching site index.
func TestAt(t *testing.T) {
	hits := 0
	h := At(7, func(i int, _ []float64) {
		hits++
		if i != 7 {
			t.Fatalf("wrapped hook saw i = %d, want 7", i)
		}
	})
	for i := 0; i < 20; i++ {
		h(i, nil)
	}
	if hits != 1 {
		t.Fatalf("At(7) fired %d times, want 1", hits)
	}
}

// TestOnce only passes through the first firing.
func TestOnce(t *testing.T) {
	hits := 0
	h := Once(func(int, []float64) { hits++ })
	for i := 0; i < 5; i++ {
		h(i, nil)
	}
	if hits != 1 {
		t.Fatalf("Once fired %d times, want 1", hits)
	}
}

// TestCall invokes the wrapped func on every firing — the cancellation shim.
func TestCall(t *testing.T) {
	n := 0
	h := Call(func() { n++ })
	h(0, nil)
	h(1, nil)
	if n != 2 {
		t.Fatalf("Call fired %d times, want 2", n)
	}
}

// TestDelay sleeps for at least the configured duration.
func TestDelay(t *testing.T) {
	start := time.Now()
	Delay(20*time.Millisecond)(0, nil)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("Delay slept %v, want ≥ 20ms", d)
	}
}

// TestFireConcurrentWithSet: Fire racing Set/Reset must be safe (the map is
// copy-on-write). Run with -race to make this meaningful.
func TestFireConcurrentWithSet(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				Fire(Quadrature, 0, nil)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		restore := Set(Quadrature, func(int, []float64) {})
		restore()
	}
	close(done)
	wg.Wait()
}
