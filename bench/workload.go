package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one seeded set of inputs and the way they are driven.
type workload struct {
	name string
	// clients is the closed-loop caller count: each caller sends its next
	// operation only when the previous one has returned.
	clients int
	// tail is the percentile reported as latency_tail_ms, and minOps the
	// operation count every run reaches so that tail has at least ten
	// samples beyond it.
	tail   float64
	minOps int
	setup  func(ctx context.Context, e *env) (instance, error)
}

// env is what a workload's set-up receives.
type env struct {
	seed  int64
	quick bool   // toy sizes for the smoke test
	tmp   string // parent directory for store files
}

// instance is a workload set up and ready to measure.
type instance interface {
	// op runs operation i of the seeded input sequence. It records its own
	// span when tr is non-nil.
	op(ctx context.Context, i int, tr *tracer) opResult
	// verify checks the answers of the completed operations against an
	// independent reference.
	verify(ctx context.Context) (verdict, error)
	// replayInputs are the scenarios the traced run replays through the
	// exported functions of each layer.
	replayInputs() ([]replayInput, error)
	// counters returns the per-layer counters the instance can observe after
	// a traced pass (server, cluster and design-loop counters).
	counters(ctx context.Context) (map[string]float64, error)
	close(ctx context.Context) error
}

// opResult is one operation as the caller saw it.
type opResult struct {
	i       int
	latency time.Duration
	err     error  // transport error, non-200 status or broken premise
	tier    string // groundd's serving rung, when there is one
}

// verdict is the outcome of a correctness check: how many answers were
// compared against a reference and which operations answered wrongly.
type verdict struct {
	checked int
	wrong   map[int]string
	note    string
}

// pass is one measured window.
type pass struct {
	ops  []opResult
	wall time.Duration
}

// measure drives inst with w.clients closed-loop callers until the window
// has passed and at least minOps operations were issued.
func measure(ctx context.Context, w workload, inst instance, window time.Duration, minOps int, tr *tracer) pass {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(window)
	per := make([][]opResult, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= minOps && !time.Now().Before(deadline) {
					return
				}
				t := time.Now()
				r := inst.op(ctx, i, tr)
				r.i, r.latency = i, time.Since(t)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	p := pass{wall: time.Since(start)}
	for _, rs := range per {
		p.ops = append(p.ops, rs...)
	}
	sort.Slice(p.ops, func(a, b int) bool { return p.ops[a].i < p.ops[b].i })
	return p
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; an untraced run
// reports exactly these. latency_tail_ms is the workload's own percentile
// (workload.tail), the highest its operation count supports. Every timing
// among them is at the reference speed (speed.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics a traced run reports, one group per module.
var perLayer = []metricDef{
	{"grid.mesh_ms", "ms"},
	{"grid.dof", "count"},
	{"bem.setup_ms", "ms"},
	{"bem.matrix_ms", "ms"},
	{"bem.pairs", "count"},
	{"bem.pairs_per_s", "1/s"},
	{"bem.worker_busy_frac", "frac"},
	{"bem.predicted_speedup", "x"},
	{"linalg.factor_ms", "ms"},
	{"linalg.solve_ms", "ms"},
	{"hmatrix.build_ms", "ms"},
	{"hmatrix.solve_ms", "ms"},
	{"hmatrix.cg_iterations", "count"},
	{"hmatrix.dense_blocks", "count"},
	{"hmatrix.low_rank_blocks", "count"},
	{"hmatrix.avg_rank", "rank"},
	{"hmatrix.bytes_mib", "MiB"},
	{"post.voltages_ms", "ms"},
	{"post.raster_ms", "ms"},
	{"post.points_per_s", "1/s"},
	{"store.encode_us", "us"},
	{"store.decode_us", "us"},
	{"store.rehydrate_ms", "ms"},
	{"store.replay_ms", "ms"},
	{"store.records", "count"},
	{"server.encode_us", "us"},
	{"server.rung_lru_frac", "frac"},
	{"server.rung_store_frac", "frac"},
	{"server.rung_peer_frac", "frac"},
	{"server.rung_solve_frac", "frac"},
	{"server.rejected_429", "count"},
	{"server.assemblies", "count"},
	{"cluster.peer_fallbacks", "count"},
	{"cluster.breaker_open", "count"},
	{"designopt.requested", "count"},
	{"designopt.evaluated", "count"},
	{"designopt.hit_rate", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
	{"host.ref_loop_us", "us"},
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// record is the full result of one run, appended to the -out file and read
// back by -compare.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Host      host    `json:"host"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Tail      string  `json:"tail_percentile"`
	// SpeedFactor is what every end-to-end timing was multiplied by to bring
	// it to the reference speed; dividing by it gives the wall-clock value.
	SpeedFactor float64           `json:"speed_factor"`
	Metrics     map[string]metric `json:"metrics"`
	Checks      []string          `json:"checks"`
	// Layers is the traced run's self time per span name, in ms.
	Layers map[string]float64 `json:"layer_self_ms,omitempty"`

	// unchecked is set when some pass had no answer to compare.
	unchecked bool
}

// runOptions are the knobs of one run.
type runOptions struct {
	window time.Duration
	// A run sets the workload up at least setups times, and more, up to
	// maxSetups, until setupBudget has been spent; setup_s is the median.
	setups      int
	setupBudget time.Duration
	traced      bool // per-layer run instead of end-to-end
	spans       string
}

// maxSetups caps the set-ups of one run.
const maxSetups = 9

// runWorkload performs one run of w: set-ups, the measured pass, the
// correctness check and, for a traced run, a second traced pass plus the
// layer replay.
func runWorkload(ctx context.Context, w workload, e *env, o runOptions) (record, error) {
	minOps := w.minOps
	if e.quick {
		w.tail = 0.5
		minOps = minSamples(w.tail)
	}
	rec := record{
		Workload: w.name, Seed: e.seed, Seconds: o.window.Seconds(), Trace: o.traced,
		Host: hostInfo(), Metrics: map[string]metric{},
		Tail: fmt.Sprintf("p%g", 100*w.tail),
	}

	// The host's speed is sampled through the set-ups and the measured pass,
	// and in a traced run on to the end of the layer replay.
	sp := startSpeedProbe()
	defer sp.close()
	var setupS []float64
	var spent time.Duration
	var inst instance
	for k := 0; k < o.setups || (k < maxSetups && spent < o.setupBudget); k++ {
		if inst != nil {
			if err := inst.close(ctx); err != nil {
				return rec, err
			}
		}
		t := time.Now()
		var err error
		if inst, err = w.setup(ctx, e); err != nil {
			return rec, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t)
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	p := measure(ctx, w, inst, o.window, minOps, nil)
	if !o.traced {
		sp.close()
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return rec, err
	}
	if err := rec.check(ctx, w.name, inst, p); err != nil {
		return rec, err
	}
	if err := inst.close(ctx); err != nil {
		return rec, err
	}
	if ctx.Err() != nil {
		return rec, ctx.Err()
	}
	lat := latenciesMs(p)
	p50 := median(lat)
	if !o.traced {
		// Every timing is scaled to the reference speed; a rate divides by
		// time, so it is scaled the other way.
		speed, ref, samples, err := sp.factor()
		if err != nil {
			return rec, err
		}
		rec.SpeedFactor = speed
		n := len(lat)
		rec.Metrics["setup_s"] = metric{median(setupS) * speed, "s", len(setupS)}
		rec.Metrics["throughput_per_s"] = metric{float64(n) / p.wall.Seconds() / speed, "1/s", len(p.ops)}
		rec.Metrics["peak_rss_mib"] = metric{rss, "MiB", 1}
		if n > 0 {
			rec.Metrics["latency_p50_ms"] = metric{p50 * speed, "ms", n}
		}
		if tail, ok := percentile(lat, w.tail); ok {
			rec.Metrics["latency_tail_ms"] = metric{tail * speed, "ms", n}
		}
		rec.Checks = append(rec.Checks, fmt.Sprintf("host speed: reference loop median %v over %d samples, timings scaled by %.4f",
			ref, samples, speed))
		return rec, rec.missing(endToEnd)
	}
	return rec, rec.tracedPass(ctx, w, e, o, minOps, p50, sp)
}

// missing reports the metrics of want the run could not measure. A run
// whose operations all succeeded must measure every one; a run with failed
// operations is already incorrect, so a metric its failures left without
// samples is noted among the checks instead.
func (rec *record) missing(want []metricDef) error {
	for _, m := range want {
		if _, ok := rec.Metrics[m.name]; ok {
			continue
		}
		if rec.Failed == 0 {
			return fmt.Errorf("%s: metric %s not measured (%d operations)", rec.Workload, m.name, rec.Attempted)
		}
		rec.Checks = append(rec.Checks, fmt.Sprintf("%s not reported: too few operations succeeded", m.name))
	}
	return nil
}

// tracedPass sets the workload up once more, measures it with spans on,
// replays its inputs through the layers and fills the per-layer metrics.
// The host's speed is sampled until the replay ends; the per-layer timings
// are reported as measured, with the median sample beside them.
func (rec *record) tracedPass(ctx context.Context, w workload, e *env, o runOptions, minOps int, untracedP50 float64, sp *speedProbe) error {
	inst, err := w.setup(ctx, e)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	tr := newTracer()
	p := measure(ctx, w, inst, o.window, minOps, tr)
	vals := map[string]float64{
		"server.rejected_429": 0, "server.assemblies": 0,
		"cluster.peer_fallbacks": 0, "cluster.breaker_open": 0,
		"designopt.requested": 0, "designopt.evaluated": 0, "designopt.hit_rate": 0,
	}
	counters, err := inst.counters(ctx)
	if err != nil {
		return err
	}
	for k, v := range counters {
		vals[k] = v
	}
	if err := rec.check(ctx, w.name+" (traced)", inst, p); err != nil {
		return err
	}
	for _, rung := range []string{"lru", "store", "peer", "solve"} {
		var n int
		for _, r := range p.ops {
			if r.tier == rung {
				n++
			}
		}
		vals["server.rung_"+rung+"_frac"] = float64(n) / float64(len(p.ops))
	}
	ins, err := inst.replayInputs()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.tmp, "replay-*")
	if err != nil {
		return err
	}
	layers, err := replayLayers(ctx, ins, dir, tr)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("%s layer replay: %w", w.name, err)
	}
	if err := inst.close(ctx); err != nil {
		return err
	}
	sp.close()
	_, ref, samples, err := sp.factor()
	if err != nil {
		return err
	}
	vals["host.ref_loop_us"] = float64(ref) / float64(time.Microsecond)
	for k, v := range layers {
		vals[k] = v
	}
	spans := tr.snapshot()
	vals["trace.overhead_frac"] = (median(latenciesMs(p)) - untracedP50) / untracedP50
	vals["trace.spans"] = float64(len(spans))

	rec.Layers = map[string]float64{}
	for name, d := range selfByName(spans) {
		rec.Layers[name] = float64(d.Nanoseconds()) / 1e6
	}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		n := len(p.ops)
		if _, replayed := layers[m.name]; replayed {
			n = len(ins)
		} else if m.name == "host.ref_loop_us" {
			n = samples
		}
		rec.Metrics[m.name] = metric{v, m.unit, n}
	}
	if err := rec.missing(perLayer); err != nil {
		return err
	}
	if o.spans == "" {
		return nil
	}
	return writeSpans(o.spans, spanFile{Workload: w.name, Seed: e.seed, Host: rec.Host, Spans: spans})
}

// check verifies a pass's answers and folds the outcome into the record.
func (rec *record) check(ctx context.Context, label string, inst instance, p pass) error {
	v, err := inst.verify(ctx)
	if err != nil {
		return fmt.Errorf("%s check: %w", label, err)
	}
	failed := 0
	var firstErr string
	for _, r := range p.ops {
		why, wrong := v.wrong[r.i]
		if r.err != nil {
			why = r.err.Error()
		}
		if r.err != nil || wrong {
			failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("op %d: %s", r.i, why)
			}
		}
	}
	rec.Attempted += len(p.ops)
	rec.Failed += failed
	rec.unchecked = rec.unchecked || v.checked == 0
	rec.Correct = rec.Failed == 0 && !rec.unchecked
	line := fmt.Sprintf("%s: %d operations, %d failed; %s", label, len(p.ops), failed, v.note)
	if firstErr != "" {
		line += "; first failure: " + firstErr
	}
	rec.Checks = append(rec.Checks, line)
	return nil
}

// latenciesMs are the latencies of the operations that succeeded; failed
// ones count in the summary's failed/attempted instead.
func latenciesMs(p pass) []float64 {
	out := make([]float64, 0, len(p.ops))
	for _, r := range p.ops {
		if r.err == nil {
			out = append(out, float64(r.latency.Nanoseconds())/1e6)
		}
	}
	return out
}
