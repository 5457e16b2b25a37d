package bem

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"earthing/internal/grid"
	"earthing/internal/soil"
)

// designSequence is the candidate sequence of a design search in one soil:
// 3×3 and 5×5 lattices with 0, 4 and 8 perimeter rods, buried at 0.5, 0.65
// and 0.8 m, split at the interface depths.
func designSequence(t testing.TB, depths ...float64) []*grid.Mesh {
	t.Helper()
	var ms []*grid.Mesh
	for _, n := range []int{3, 5} {
		for _, rods := range []int{0, 4, 8} {
			for _, z := range []float64{0.5, 0.65, 0.8} {
				ms = append(ms, designCandidateAt(t, n, rods, z, depths...))
			}
		}
	}
	return ms
}

// candidateOut is what the design loop reads of one candidate's assembler:
// its matrix (packed lower triangle) and its 5 m surface raster.
type candidateOut struct {
	matrix, surface []float64
}

// evalCandidate assembles a's matrix and evaluates the candidate's surface
// raster for a fixed density at workers.
func evalCandidate(t testing.TB, a *Assembler, workers int) candidateOut {
	t.Helper()
	out, err := candidateBits(a, workers)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// candidateBits is evalCandidate for goroutines other than the test's.
func candidateBits(a *Assembler, workers int) (candidateOut, error) {
	var out candidateOut
	r, _, err := a.MatrixCtx(context.Background())
	if err != nil {
		return out, err
	}
	for i := 0; i < r.Order(); i++ {
		for j := 0; j <= i; j++ {
			out.matrix = append(out.matrix, r.At(i, j))
		}
	}
	pts := surfaceRaster(a.mesh, 5)
	sigma := make([]float64, a.mesh.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	out.surface = make([]float64, len(pts))
	err = a.Evaluator().PotentialBatchCtx(context.Background(), pts, sigma, 1, out.surface, BatchOptions{Workers: workers})
	return out, err
}

// panelKey names one built panel of a ladder's registry.
type panelKey struct {
	table farKey
	idx   int
}

// builtPanels returns the panels built in l's registry.
func builtPanels(l *Ladder) map[panelKey]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[panelKey]bool{}
	for k, t := range l.tables {
		for i := range t.panels {
			if t.panels[i].Load() != nil {
				out[panelKey{k, i}] = true
			}
		}
	}
	return out
}

// TestSharedLadderMatchesPrivate is the oracle of ladder sharing: a design
// search's candidate sequence, evaluated forwards and backwards on one
// shared ladder at one and two workers, then again on the same ladder from
// its memos, and all at once on concurrent assemblers, gives every matrix
// entry and every surface potential bitwise equal to a private ladder's, in a K < 0 and a K > 0 two-layer soil and a
// three-layer soil. The shared registry builds exactly the panels the
// private ladders built between them, and at one worker builds each of
// them once.
func TestSharedLadderMatchesPrivate(t *testing.T) {
	// The three-layer interfaces lie below every rod end: pairs outside the
	// top layer have no image expansion and would fall back to quadrature
	// of the Hankel kernel, which is minutes for the sequence.
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.008}, []float64{4.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		model  soil.Model
		depths []float64
		// every keeps every every-th candidate of the sequence: the
		// three-layer top-layer ladder is long (~47k images), and every
		// fourth candidate still covers both lattices, every rod count and
		// every depth.
		every int
	}{
		{"K-0.52", soil.NewTwoLayer(0.005, 0.016, 1.3), []float64{1.3}, 1},
		{"K+0.5", soil.NewTwoLayer(0.015, 0.005, 1.3), []float64{1.3}, 1},
		{"three-layer", ml, []float64{4.0, 6.0}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var cands []*grid.Mesh
			for i, m := range designSequence(t, c.depths...) {
				if i%c.every == 0 {
					cands = append(cands, m)
				}
			}
			want := make([]candidateOut, len(cands))
			union := map[panelKey]bool{}
			privateBuilds := int64(0)
			for i, m := range cands {
				a, err := New(m, c.model, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = evalCandidate(t, a, 1)
				for k := range builtPanels(a.lad) {
					union[k] = true
				}
				privateBuilds += a.lad.builds.Load()
			}
			forwards := make([]int, len(cands))
			for i := range forwards {
				forwards[i] = i
			}
			backwards := slices.Clone(forwards)
			slices.Reverse(backwards)
			for _, workers := range []int{1, 2} {
				for dir, order := range [][]int{forwards, backwards} {
					opt := Options{Workers: workers}
					lad := NewLadder(c.model, opt)
					// The second pass repeats the sequence on the same
					// ladder, its classes and columns served by the memos.
					for pass := 0; pass < 2; pass++ {
						served := lad.memo.classHits.Load() + lad.memo.colHits.Load()
						for _, i := range order {
							a, err := NewShared(cands[i], c.model, opt, lad)
							if err != nil {
								t.Fatal(err)
							}
							got := evalCandidate(t, a, workers)
							label := fmt.Sprintf("workers %d, order %d, pass %d, candidate %d", workers, dir, pass, i)
							sameBits(t, label+" matrix", got.matrix, want[i].matrix)
							sameBits(t, label+" surface", got.surface, want[i].surface)
						}
						if pass == 1 && lad.memo.classHits.Load()+lad.memo.colHits.Load() == served {
							t.Errorf("workers %d, order %d: nothing served from the memos on the second pass", workers, dir)
						}
					}
					built := builtPanels(lad)
					if len(built) != len(union) {
						t.Errorf("workers %d, order %d: %d panels in the shared registry, %d distinct in the private ones", workers, dir, len(built), len(union))
					}
					for k := range union {
						if !built[k] {
							t.Fatalf("workers %d, order %d: panel %v of a private ladder missing from the shared one", workers, dir, k)
						}
					}
					if n := lad.builds.Load(); workers == 1 && n != int64(len(built)) {
						t.Errorf("order %d: %d panel builds for %d panels", dir, n, len(built))
					}
				}
			}
			// Every candidate at once, each on its own goroutine: the
			// assemblers race to create tables and build panels.
			lad := NewLadder(c.model, Options{Workers: 2})
			got := make([]candidateOut, len(cands))
			errs := make([]error, len(cands))
			var wg sync.WaitGroup
			for i, m := range cands {
				a, err := NewShared(m, c.model, Options{Workers: 2}, lad)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = candidateBits(a, 2)
				}(i)
			}
			wg.Wait()
			for i := range cands {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				sameBits(t, fmt.Sprintf("concurrent, candidate %d matrix", i), got[i].matrix, want[i].matrix)
				sameBits(t, fmt.Sprintf("concurrent, candidate %d surface", i), got[i].surface, want[i].surface)
			}
			if n := len(builtPanels(lad)); n != len(union) {
				t.Errorf("concurrent: %d panels in the shared registry, %d distinct in the private ones", n, len(union))
			}
			if len(union) == 0 {
				t.Fatal("no panels built")
			}
			t.Logf("%d candidates: %d panel builds on private ladders, %d distinct", len(cands), privateBuilds, len(union))
		})
	}
}

// sameBits demands bitwise equality of two slices.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v, private ladder %v", label, i, got[i], want[i])
		}
	}
}

// TestNewSharedRejectsForeignLadder: a ladder serves only assemblers of the
// model and series cap it was built for.
func TestNewSharedRejectsForeignLadder(t *testing.T) {
	m := designCandidate(t, 3, 0, 1.3)
	model := soil.NewTwoLayer(0.005, 0.016, 1.3)
	lad := NewLadder(model, Options{})
	if _, err := NewShared(m, model, Options{}, lad); err != nil {
		t.Fatalf("own model: %v", err)
	}
	for name, tc := range map[string]struct {
		model soil.Model
		opt   Options
	}{
		"other ratio":      {soil.NewTwoLayer(0.005, 0.017, 1.3), Options{}},
		"other series cap": {model, Options{MaxGroups: 64}},
	} {
		if _, err := NewShared(m, tc.model, tc.opt, lad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewShared(m, model, Options{}, nil); err == nil {
		t.Error("nil ladder accepted")
	}
}

// BenchmarkSharedLadderDesignSequence times a design search's candidate
// sequence — matrix and 5 m surface raster of each of the 18 lattices of
// designSequence, at two workers — on one fresh shared ladder per
// iteration, so panels are built once per sequence, not once per candidate.
func BenchmarkSharedLadderDesignSequence(b *testing.B) {
	model := soil.NewTwoLayer(0.005, 0.016, 1.3)
	opt := Options{Workers: 2}
	cands := designSequence(b, 1.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lad := NewLadder(model, opt)
		for _, m := range cands {
			a, err := NewShared(m, model, opt, lad)
			if err != nil {
				b.Fatal(err)
			}
			evalCandidate(b, a, 2)
		}
	}
	b.ReportMetric(float64(len(cands)), "candidates")
}
