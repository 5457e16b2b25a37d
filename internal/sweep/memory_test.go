package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/faultinject"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// TestSweepHoldsOneJobAtATime pins the sweep's memory bound: jobs run one
// at a time, so however many distinct soil models a sweep holds, its live
// heap carries one job's pair-class table (4 B per element pair), not all of
// them. An AssemblyPair hook collects garbage at every job's first class
// evaluation and reads the live heap; each reading must stay below the
// pre-sweep heap plus two tables. It also pins the emission order: job k's
// results are emitted before job k+1 evaluates its first class.
func TestSweepHoldsOneJobAtATime(t *testing.T) {
	const jobs = 8
	// A 612-element lattice: its 187k-pair table (0.75 MB) dominates the
	// mesh, the geometry and every per-job result.
	g := grid.RectMesh(0, 0, 100, 100, 18, 18, 0.6, 0.006)
	cfg := testConfig(2)
	scens := make([]Scenario, jobs)
	for i := range scens {
		// Distinct γ₂/γ₁ ratios are distinct jobs; the interface lies below
		// the lattice, so every job has the same mesh and class count.
		scens[i] = Scenario{Soil: soil.NewTwoLayer(0.010, 0.012+0.002*float64(i), 5)}
	}

	// Every job has the same mesh and its elements in the top layer, so one
	// probe assembly gives the class count and the table size of each.
	mesh, _, err := core.BuildMesh(g, scens[0].Soil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := bem.New(mesh, scens[0].Soil, cfg.BEM)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := probe.MatrixCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	classes := int64(probe.NumClasses())
	table := uint64(4 * probe.NumPairs())
	probe, mesh = nil, nil

	var (
		mu       sync.Mutex
		readings []uint64 // live heap at job k's first class evaluation
		emitted  []int64  // results emitted by then
		fired    atomic.Int64
		results  atomic.Int64
	)
	defer faultinject.Set(faultinject.AssemblyPair, func(int, []float64) {
		n := fired.Add(1)
		if (n-1)%classes != 0 {
			return
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mu.Lock()
		readings = append(readings, ms.HeapAlloc)
		emitted = append(emitted, results.Load())
		mu.Unlock()
	})()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	limit := ms.HeapAlloc + 2*table
	err = Stream(context.Background(), g, scens, Options{Config: cfg}, func(r Result) error {
		if r.Err != nil {
			t.Errorf("scenario %d: %v", r.Index, r.Err)
		}
		results.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(readings) != jobs {
		t.Fatalf("%d job starts observed, want %d (%d class evaluations of %d per job)",
			len(readings), jobs, fired.Load(), classes)
	}
	for k, h := range readings {
		if h > limit {
			t.Errorf("job %d: live heap %.1f MB at its first class, limit %.1f MB (pre-sweep heap + 2 × %.1f MB table)",
				k, float64(h)/1e6, float64(limit)/1e6, float64(table)/1e6)
		}
		if emitted[k] != int64(k) {
			t.Errorf("job %d started after %d emitted results, want %d", k, emitted[k], k)
		}
	}
}
