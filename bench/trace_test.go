package main

import (
	"testing"
	"time"
)

// TestSelfTimes checks the self-time arithmetic: a span's duration minus the
// part of its interval its direct children cover, overlapping children
// counted once and children sticking out of the parent clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "bem", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "bem", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "post", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "linalg", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 200, End: 210},
	}
	want := map[int64]time.Duration{1: 50, 2: 15, 3: 30, 4: 30, 5: 5, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["bem"] != 45 || byName["op"] != 50 {
		t.Errorf("selfByName = %v, want bem 45 and op 50", byName)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 7, 0)
	tr.timed("child", 7, root, func() { time.Sleep(time.Millisecond) })
	tr.end(root, "lru")
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Tag != "lru" || s[0].Op != 7 {
		t.Fatalf("spans = %+v", s)
	}
	if self := selfTimes(s)[s[0].ID]; self < 0 || self > time.Duration(s[0].End-s[0].Start) {
		t.Errorf("root self time %v outside [0, duration]", self)
	}

	var off *tracer // the untraced run
	if id := off.begin("op", 1, 0); id != 0 || off.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
	off.end(0, "")
}
