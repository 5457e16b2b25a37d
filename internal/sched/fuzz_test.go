package sched

import (
	"testing"
)

// FuzzParseSchedule: arbitrary schedule labels must parse or error, never
// panic, and an accepted schedule must survive a String() → Parse round trip
// and be runnable by For.
func FuzzParseSchedule(f *testing.F) {
	f.Add("dynamic,1")
	f.Add("static")
	f.Add("static,16")
	f.Add("guided,64")
	f.Add(" STATIC , 4 ")
	f.Add("dynamic,0")
	f.Add("dynamic,-3")
	f.Add("dynamic,99999999999999999999")
	f.Add("guided,")
	f.Add(",")
	f.Add("")
	f.Add("dynamic,1,2")
	f.Fuzz(func(t *testing.T, label string) {
		s, err := ParseSchedule(label)
		if err != nil {
			return
		}
		if s.Kind == Unspecified {
			t.Fatalf("ParseSchedule(%q) accepted an unspecified kind", label)
		}
		if s.Chunk < 0 {
			t.Fatalf("ParseSchedule(%q) produced negative chunk %d", label, s.Chunk)
		}
		// Round trip through the canonical label.
		s2, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("canonical label %q of %q does not re-parse: %v", s, label, err)
		}
		if s2 != s {
			t.Fatalf("round trip changed %v → %v (from %q)", s, s2, label)
		}
		// An accepted schedule must actually run a loop: every iteration
		// exactly once.
		seen := make([]bool, 37)
		run(t, len(seen), 2, s, func(i, _ int) { seen[i] = true })
		for i, ok := range seen {
			if !ok {
				t.Fatalf("schedule %v skipped iteration %d", s, i)
			}
		}
	})
}
