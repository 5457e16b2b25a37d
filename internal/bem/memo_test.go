package bem

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"earthing/internal/faultinject"
	"earthing/internal/grid"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// memoCandidates is every third candidate of the design sequence: 3×3 and
// 5×5 lattices with 0, 4 and 8 rods at one burial depth, which share most
// of their classes and columns.
func memoCandidates(t testing.TB) []*grid.Mesh {
	var ms []*grid.Mesh
	for i, m := range designSequence(t, 1.3) {
		if i%3 == 0 {
			ms = append(ms, m)
		}
	}
	return ms
}

// privateOuts evaluates every mesh on a private ladder under opt.
func privateOuts(t *testing.T, model soil.Model, ms []*grid.Mesh, opt Options) []candidateOut {
	t.Helper()
	out := make([]candidateOut, len(ms))
	for i, m := range ms {
		a, err := New(m, model, opt)
		if err != nil {
			t.Fatal(err)
		}
		if a.lad.memo != nil {
			t.Fatal("a private ladder carries memos")
		}
		out[i] = evalCandidate(t, a, opt.Workers)
	}
	return out
}

// sharedOut evaluates m on lad and checks it bitwise against want.
func sharedOut(t *testing.T, model soil.Model, m *grid.Mesh, opt Options, lad *Ladder, want candidateOut, label string) *Assembler {
	t.Helper()
	a, err := NewShared(m, model, opt, lad)
	if err != nil {
		t.Fatal(err)
	}
	got := evalCandidate(t, a, opt.Workers)
	sameBits(t, label+" matrix", got.matrix, want.matrix)
	sameBits(t, label+" surface", got.surface, want.surface)
	return a
}

// TestSharedLadderMemoCapAndFootprint: the memos count in Ladder.footprint
// and nowhere else, so a shared ladder's footprint is a private one's plus
// its memos; past the cap the memos stop growing and every matrix and
// raster stays bitwise a private ladder's.
func TestSharedLadderMemoCapAndFootprint(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.3)
	opt := Options{Workers: 2}
	cands := memoCandidates(t)
	want := privateOuts(t, model, cands, opt)

	priv, err := New(cands[0], model, opt)
	if err != nil {
		t.Fatal(err)
	}
	evalCandidate(t, priv, 2)
	lad := NewLadder(model, opt)
	shared := sharedOut(t, model, cands[0], opt, lad, want[0], "first candidate")
	memoBytes := lad.memo.footprint()
	if memoBytes == 0 {
		t.Fatal("nothing memoized")
	}
	if got, want := lad.footprint(), priv.lad.footprint()+memoBytes; got != want {
		t.Errorf("shared ladder footprint %d, want the private ladder's plus the memos, %d", got, want)
	}
	if got, want := shared.Footprint(), priv.Footprint()+memoBytes; got != want {
		t.Errorf("shared assembler footprint %d, want the private assembler's plus the memos, %d", got, want)
	}

	// Full memos: the later candidates evaluate their misses and publish
	// none of them.
	m := lad.memo
	m.classCap, m.colCap = m.classBytes, m.colBytes
	classes, cols := m.classBytes, m.colBytes
	misses := m.classMisses.Load() + m.colMisses.Load()
	for i := 1; i < len(cands); i++ {
		sharedOut(t, model, cands[i], opt, lad, want[i], fmt.Sprintf("capped, candidate %d", i))
	}
	if m.classBytes != classes || m.colBytes != cols {
		t.Errorf("memos grew past the cap: classes %d → %d, columns %d → %d bytes", classes, m.classBytes, cols, m.colBytes)
	}
	if m.classMisses.Load()+m.colMisses.Load() == misses {
		t.Error("the capped candidates missed nothing")
	}

	// A cap at half of one candidate's memos: publishing stops partway.
	lad = NewLadder(model, opt)
	lad.memo.classCap, lad.memo.colCap = classes/2, cols/2
	for pass := 0; pass < 2; pass++ {
		for i := range cands {
			sharedOut(t, model, cands[i], opt, lad, want[i], fmt.Sprintf("half cap, pass %d, candidate %d", pass, i))
		}
	}
	if lad.memo.classBytes > classes/2 || lad.memo.colBytes > cols/2 || lad.memo.classBytes == 0 || lad.memo.colBytes == 0 {
		t.Errorf("half cap: classes %d of %d, columns %d of %d bytes", lad.memo.classBytes, classes/2, lad.memo.colBytes, cols/2)
	}
}

// TestSharedLadderMemoLoopStrategies: both loop strategies serve classes
// from the memo, either reads what the other published, and a candidate
// repeated on its ladder misses no class and no column.
func TestSharedLadderMemoLoopStrategies(t *testing.T) {
	model := soil.NewTwoLayer(0.015, 0.005, 1.3)
	cands := memoCandidates(t)[:3]
	want := privateOuts(t, model, cands, Options{Workers: 2})
	lad := NewLadder(model, Options{Workers: 2})
	for pass, loop := range []LoopStrategy{OuterLoop, InnerLoop, OuterLoop} {
		opt := Options{Workers: 2, Loop: loop}
		for i, m := range cands {
			misses := lad.memo.classMisses.Load() + lad.memo.colMisses.Load()
			sharedOut(t, model, m, opt, lad, want[i], fmt.Sprintf("%v, pass %d, candidate %d", loop, pass, i))
			if n := lad.memo.classMisses.Load() + lad.memo.colMisses.Load() - misses; pass > 0 && n != 0 {
				t.Errorf("%v, pass %d, candidate %d: %d misses on a repeat", loop, pass, i, n)
			}
		}
	}
}

// TestSharedLadderMemoPublishesNothingUnderFaults: a loop that is cancelled,
// or that runs while a fault hook is installed, publishes nothing.
func TestSharedLadderMemoPublishesNothingUnderFaults(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.3)
	opt := Options{Workers: 2}
	m := designCandidate(t, 3, 4, 1.3)
	lad := NewLadder(model, opt)
	a, err := NewShared(m, model, opt, lad)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := a.MatrixCtx(ctx); err == nil {
		t.Fatal("cancelled MatrixCtx succeeded")
	}
	pts := surfaceRaster(m, 5)
	sigma := make([]float64, m.NumDoF)
	out := make([]float64, len(pts))
	if err := a.Evaluator().PotentialBatchCtx(ctx, pts, sigma, 1, out, BatchOptions{Workers: 2}); err == nil {
		t.Fatal("cancelled PotentialBatchCtx succeeded")
	}
	if n := lad.memo.footprint(); n != 0 {
		t.Errorf("cancelled loops published %d bytes", n)
	}

	restore := faultinject.Set(faultinject.Solve, faultinject.Call(func() {}))
	evalCandidate(t, a, 2)
	restore()
	if n := lad.memo.footprint(); n != 0 {
		t.Errorf("loops under an installed fault hook published %d bytes", n)
	}
	evalCandidate(t, a, 2)
	if lad.memo.footprint() == 0 {
		t.Error("nothing published once the hook was removed")
	}
}

// TestSharedLadderMemoColumnsPastCap: a batch buffers only the columns the
// column memo has room for, so a raster whose columns do not fit allocates
// less than one column and publishes nothing, and one with room for k
// columns allocates and keeps k. Every raster stays bitwise a private
// ladder's.
func TestSharedLadderMemoColumnsPastCap(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.3)
	opt := Options{Workers: 2}
	m := designCandidate(t, 5, 4, 1.3)
	pts := surfaceRaster(m, 1)
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	ctx := context.Background()
	priv, err := New(m, model, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(pts))
	if err := priv.Evaluator().PotentialBatchCtx(ctx, pts, sigma, 1, want, BatchOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	lad := NewLadder(model, opt)
	a, err := NewShared(m, model, opt, lad)
	if err != nil {
		t.Fatal(err)
	}
	column := int64(16 * len(pts))
	entry := columnMemoEntryBytes + column
	set := int64(pointSetBytes + 24*len(pts))
	// batch evaluates the raster on a, checks it against the private
	// ladder's, and returns the bytes it allocated.
	batch := func(label string) int64 {
		t.Helper()
		got := make([]float64, len(pts))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := a.Evaluator().PotentialBatchCtx(ctx, pts, sigma, 1, got, BatchOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		sameBits(t, label, got, want)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}

	// No room for one column: nothing published, less than a column
	// allocated once the plan and the surface panels are built.
	lad.memo.colCap = set + entry - 1
	batch("no room, first batch")
	if n := batch("no room"); n >= column {
		t.Errorf("no room: the batch allocated %d bytes, a column is %d", n, column)
	}
	if n := lad.memo.colBytes; n != 0 {
		t.Errorf("no room: %d bytes published", n)
	}

	// Room for k columns: k kept, so k columns and the point set's copy
	// allocated, with less than a column to spare; a repeat is served them
	// and allocates less than one column.
	const k = 3
	lad.memo.colCap = set + k*entry
	if n, most := batch("room for 3"), set+(k+1)*column; n >= most {
		t.Errorf("room for %d: the batch allocated %d bytes, want less than %d", k, n, most)
	}
	if got, want := lad.memo.colBytes, set+k*entry; got != want {
		t.Errorf("room for %d: %d bytes published, want %d", k, got, want)
	}
	hits := lad.memo.colHits.Load()
	if n := batch("full"); n >= column {
		t.Errorf("full: the batch allocated %d bytes, a column is %d", n, column)
	}
	if n := lad.memo.colHits.Load() - hits; n != k {
		t.Errorf("full: %d columns served, want %d", n, k)
	}
}

// TestSharedLadderMemoFailedClassLoop: a class loop that fails partway
// publishes none of its classes, and the classes an earlier candidate
// published stay served. The loop fails by a panic in one class, raised by
// a hook that uninstalls itself first, so the loop ends with no hook
// installed and only its own failure keeps it from publishing.
func TestSharedLadderMemoFailedClassLoop(t *testing.T) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.3)
	opt := Options{Workers: 2}
	cands := memoCandidates(t)[:2]
	want := privateOuts(t, model, cands, opt)
	lad := NewLadder(model, opt)
	sharedOut(t, model, cands[0], opt, lad, want[0], "first candidate")
	classes := lad.memo.classBytes

	a, err := NewShared(cands[1], model, opt, lad)
	if err != nil {
		t.Fatal(err)
	}
	var restore func()
	restore = faultinject.Set(faultinject.AssemblyPair, faultinject.Counted(5, func(int, []float64) {
		restore()
		panic("injected class panic")
	}))
	_, _, err = a.MatrixCtx(context.Background())
	if faultinject.Active() {
		restore()
		t.Fatal("the hook did not fire")
	}
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("MatrixCtx: err = %v, want the contained panic", err)
	}
	if n := lad.memo.classBytes; n != classes {
		t.Errorf("the failed loop published: %d class bytes, %d before it", n, classes)
	}

	misses := lad.memo.classMisses.Load()
	sharedOut(t, model, cands[0], opt, lad, want[0], "first candidate, repeated")
	if n := lad.memo.classMisses.Load() - misses; n != 0 {
		t.Errorf("first candidate, repeated: %d classes missed", n)
	}
	sharedOut(t, model, cands[1], opt, lad, want[1], "second candidate")
	if lad.memo.classBytes <= classes {
		t.Error("the second candidate published nothing once its loop succeeded")
	}
}
