package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// threeLayer builds a 3-layer model whose interfaces lie below every
// electrode of the paper grids, so all elements stay in the top layer and
// the assembly uses the (fast) top-layer image expansion of MultiLayer.
func threeLayer(t *testing.T) soil.Model {
	t.Helper()
	m, err := soil.NewMultiLayer([]float64{0.02, 0.019, 0.021}, []float64{6, 6})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testConfig keeps the paper discretizations but truncates the kernel
// series aggressively: the tests pin bit-identity between two code paths,
// not physical accuracy, and both sides run under the same tolerance.
func testConfig(workers int) core.Config {
	return core.Config{
		GPR:         10_000,
		RodElements: 2,
		BEM:         bem.Options{Workers: workers, SeriesTol: 1e-2},
	}
}

// sameFloats demands bitwise equality.
func sameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v != %v (Δ %g)", label, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// TestSweepMatchesAnalyze is the bit-identity contract: a sweep over
// {uniform, two-layer, three-layer} on each paper grid reproduces sequential
// Analyze exactly — same Sigma, Req, Current and GPR — at every worker
// count (each side run at the same width).
func TestSweepMatchesAnalyze(t *testing.T) {
	grids := []struct {
		name string
		g    *grid.Grid
	}{
		{"barbera", grid.Barbera()},
		{"balaidos", grid.Balaidos()},
	}
	models := []struct {
		name  string
		model soil.Model
		gpr   float64
	}{
		{"uniform", soil.NewUniform(0.020), 10_000},
		{"two-layer", soil.NewTwoLayer(0.0025, 0.020, 0.7), 12_500},
		{"three-layer", nil, 8_000}, // filled per test (needs t)
	}
	for _, gc := range grids {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", gc.name, workers), func(t *testing.T) {
				cfg := testConfig(workers)
				var scens []Scenario
				for _, mc := range models {
					model := mc.model
					if model == nil {
						model = threeLayer(t)
					}
					scens = append(scens, Scenario{ID: mc.name, Soil: model, GPR: mc.gpr})
				}
				got, err := Run(context.Background(), gc.g, scens, Options{Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(scens) {
					t.Fatalf("got %d results, want %d", len(got), len(scens))
				}
				for i, r := range got {
					if r.Index != i || r.ID != scens[i].ID {
						t.Fatalf("result %d: index %d id %q out of order", i, r.Index, r.ID)
					}
					if r.Reuse != ReuseAssembled {
						t.Fatalf("result %s: reuse %q, want assembled (all models distinct)", r.ID, r.Reuse)
					}
					seqCfg := cfg
					seqCfg.GPR = scens[i].GPR
					want, err := core.AnalyzeCtx(context.Background(), gc.g, scens[i].Soil, seqCfg)
					if err != nil {
						t.Fatal(err)
					}
					if r.Res.Req != want.Req {
						t.Errorf("%s: Req %v != %v", r.ID, r.Res.Req, want.Req)
					}
					if r.Res.Current != want.Current {
						t.Errorf("%s: Current %v != %v", r.ID, r.Res.Current, want.Current)
					}
					if r.Res.GPR != want.GPR {
						t.Errorf("%s: GPR %v != %v", r.ID, r.Res.GPR, want.GPR)
					}
					sameFloats(t, r.ID+" Sigma", r.Res.Sigma, want.Sigma)
				}
			})
		}
	}
}

// TestSweepGPRReuse pins the solve-reuse tier: N GPR variants of one model
// cost one assembly, and every variant is bit-identical to a fresh analysis
// at its GPR.
func TestSweepGPRReuse(t *testing.T) {
	g := grid.Balaidos()
	model := soil.NewTwoLayer(0.0025, 0.020, 0.7)
	cfg := testConfig(0)
	var scens []Scenario
	for i := 0; i < 10; i++ {
		scens = append(scens, Scenario{Soil: model, GPR: 1_000 * float64(i+1)})
	}
	got, err := Run(context.Background(), g, scens, Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	assembled := 0
	for _, r := range got {
		if r.Reuse == ReuseAssembled {
			assembled++
		} else if r.Reuse != ReuseSolve {
			t.Errorf("scenario %d: reuse %q, want solve", r.Index, r.Reuse)
		}
	}
	if assembled != 1 {
		t.Fatalf("%d assemblies for 10 GPR variants, want exactly 1", assembled)
	}
	for _, i := range []int{0, 4, 9} {
		seqCfg := cfg
		seqCfg.GPR = scens[i].GPR
		want, err := core.AnalyzeCtx(context.Background(), g, model, seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		r := got[i]
		if r.Res.Req != want.Req || r.Res.Current != want.Current || r.Res.GPR != want.GPR {
			t.Errorf("scenario %d: (Req, Current, GPR) = (%v, %v, %v), want (%v, %v, %v)",
				i, r.Res.Req, r.Res.Current, r.Res.GPR, want.Req, want.Current, want.GPR)
		}
		sameFloats(t, fmt.Sprintf("scenario %d Sigma", i), r.Res.Sigma, want.Sigma)
	}
}

// TestSweepFailureSemantics pins where a sweep fails. An invalid grid fails
// the whole sweep before anything is emitted. A model whose interface cuts
// a rod so close to its end that the piece breaks the thin-wire assumption
// makes the preprocessing of a valid grid fail: that fails its own job's
// scenarios alone, as ReuseFailed, while the other jobs complete bitwise
// equal to AnalyzeCtx.
func TestSweepFailureSemantics(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(2)
	bad := &grid.Grid{}
	bad.AddConductor(geom.V(0, 0, 0.8), geom.V(10, 0, 0.8), 0) // zero radius
	err := Stream(ctx, bad, []Scenario{{Soil: soil.NewUniform(0.02)}}, Options{Config: cfg},
		func(Result) error {
			t.Error("emit called for an invalid grid")
			return nil
		})
	if err == nil {
		t.Error("invalid grid accepted")
	}

	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	g.AddConductor(geom.V(0, 0, 0.8), geom.V(0, 0, 2.8), 0.006)
	// The interface at 0.805 m leaves a 5 mm rod piece, thinner than twice
	// the 6 mm radius.
	cut := soil.NewTwoLayer(0.005, 0.016, 0.805)
	if _, err := core.AnalyzeCtx(ctx, g, cut, cfg); err == nil {
		t.Fatal("AnalyzeCtx accepted the cut rod")
	}
	scens := []Scenario{
		{ID: "uniform", Soil: soil.NewUniform(0.02)},
		{ID: "cut", Soil: cut},
		{ID: "two-layer", Soil: soil.NewTwoLayer(0.005, 0.016, 1.5)},
		{ID: "cut-2x", Soil: soil.NewTwoLayer(0.010, 0.032, 0.805)},
	}
	got, err := Run(ctx, g, scens, Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if strings.HasPrefix(r.ID, "cut") {
			if r.Reuse != ReuseFailed || r.Err == nil || r.Res != nil {
				t.Errorf("%s: reuse %q, err %v, want a failed job", r.ID, r.Reuse, r.Err)
			}
			continue
		}
		if r.Reuse != ReuseAssembled || r.Err != nil {
			t.Fatalf("%s: reuse %q, err %v, want assembled", r.ID, r.Reuse, r.Err)
		}
		want, err := core.AnalyzeCtx(ctx, g, scens[i].Soil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, r.ID+" Sigma", r.Res.Sigma, want.Sigma)
		sameFloats(t, r.ID+" Req/Current/GPR", []float64{r.Res.Req, r.Res.Current, r.Res.GPR}, []float64{want.Req, want.Current, want.GPR})
	}
	if got[1].Err != got[3].Err {
		t.Errorf("the failed job's scenarios carry different errors: %v vs %v", got[1].Err, got[3].Err)
	}
}

// TestSweepScaledTier pins proportional models: M and s·M, every
// conductivity multiplied by s, normalize to bit-equal unit models, so every
// analysis of either solves the same system. Analyze gives them the same
// Sigma and potentials bit for bit, Req scales by exactly 1/s up to one
// rounding, and a sweep assembles M once and serves s·M from the solve tier,
// bit-identical to Analyze(s·M).
func TestSweepScaledTier(t *testing.T) {
	g := grid.Barbera()
	cfg := testConfig(0)
	cases := []struct {
		name  string
		model func(s float64) (soil.Model, error)
	}{
		{"uniform", func(s float64) (soil.Model, error) { return soil.NewUniform(0.016 * s), nil }},
		{"two-layer", func(s float64) (soil.Model, error) { return soil.NewTwoLayer(0.005*s, 0.016*s, 1), nil }},
		{"three-layer", func(s float64) (soil.Model, error) {
			return soil.NewMultiLayer([]float64{0.02 * s, 0.019 * s, 0.021 * s}, []float64{6, 6})
		}},
	}
	pts := []geom.Vec3{geom.V(5, 5, 0), geom.V(-12, 30, 0), geom.V(20, 10, 0.5)}
	for _, c := range cases {
		for _, s := range []float64{2, 3} {
			t.Run(fmt.Sprintf("%s/s=%g", c.name, s), func(t *testing.T) {
				m, err := c.model(1)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := c.model(s)
				if err != nil {
					t.Fatal(err)
				}
				um, _ := soil.Normalize(m)
				ums, _ := soil.Normalize(ms)
				if soil.Canonical(um) != soil.Canonical(ums) {
					t.Fatalf("normalized parameters differ: %s vs %s", soil.Canonical(um), soil.Canonical(ums))
				}
				ctx := context.Background()
				a, err := core.AnalyzeCtx(ctx, g, m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := core.AnalyzeCtx(ctx, g, ms, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameFloats(t, "Sigma", b.Sigma, a.Sigma)
				for _, x := range pts {
					if pa, pb := a.PotentialAt(x), b.PotentialAt(x); math.Float64bits(pa) != math.Float64bits(pb) {
						t.Errorf("PotentialAt(%v): %v vs %v", x, pb, pa)
					}
				}
				if rel := math.Abs(s*b.Req-a.Req) / a.Req; rel > 1e-14 {
					t.Errorf("s·Req(s·M) = %v vs Req(M) = %v (rel %g)", s*b.Req, a.Req, rel)
				}

				got, err := Run(ctx, g, []Scenario{{ID: "M", Soil: m}, {ID: "sM", Soil: ms}}, Options{Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				if got[0].Reuse != ReuseAssembled || got[1].Reuse != ReuseSolve {
					t.Fatalf("reuse (%q, %q), want (assembled, solve): one assembly", got[0].Reuse, got[1].Reuse)
				}
				r := got[1].Res
				sameFloats(t, "sweep Sigma", r.Sigma, b.Sigma)
				sameFloats(t, "sweep Req/Current/GPR", []float64{r.Req, r.Current, r.GPR}, []float64{b.Req, b.Current, b.GPR})
				if r.Model != ms {
					t.Errorf("sweep result reports model %v, want the scenario's", r.Model.Describe())
				}
			})
		}
	}
}

// TestSweepKindCollision: a two-layer model and the MultiLayer of the same
// parameters evaluate different kernel series, so they are two jobs and
// each result is bit-identical to its own Analyze. The lattice's rods cross
// the interface, where the two kernels differ most.
func TestSweepKindCollision(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	g.AddRod(0, 0, 0.8, 3, 0.006)
	g.AddRod(20, 20, 0.8, 3, 0.006)
	two := soil.NewTwoLayer(0.005, 0.016, 1)
	multi, err := soil.NewMultiLayer([]float64{0.005, 0.016}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(0)
	got, err := Run(context.Background(), g, []Scenario{{Soil: two}, {Soil: multi}}, Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []soil.Model{two, multi} {
		if got[i].Reuse != ReuseAssembled {
			t.Errorf("scenario %d: reuse %q, want assembled", i, got[i].Reuse)
		}
		want, err := core.AnalyzeCtx(context.Background(), g, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, fmt.Sprintf("scenario %d Sigma", i), got[i].Res.Sigma, want.Sigma)
		sameFloats(t, fmt.Sprintf("scenario %d Req", i), []float64{got[i].Res.Req}, []float64{want.Req})
	}
}

// TestSweepCancellation: a pre-cancelled context stops the sweep without
// emitting and returns the context error.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emitted := 0
	err := Stream(ctx, grid.Balaidos(),
		[]Scenario{{Soil: soil.NewUniform(0.02)}},
		Options{Config: testConfig(0)},
		func(Result) error { emitted++; return nil })
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if emitted != 0 {
		t.Fatalf("cancelled sweep emitted %d results", emitted)
	}
}

// TestSweepEmitError: an emit failure aborts the sweep and surfaces the
// error.
func TestSweepEmitError(t *testing.T) {
	wantErr := fmt.Errorf("sink full")
	err := Stream(context.Background(), grid.Barbera(),
		[]Scenario{
			{Soil: soil.NewUniform(0.016)},
			{Soil: soil.NewUniform(0.02)},
		},
		Options{Config: testConfig(0)},
		func(Result) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, wantErr)
	}
}

// TestSweepEmptyAndInvalid covers the degenerate inputs.
func TestSweepEmptyAndInvalid(t *testing.T) {
	if err := Stream(context.Background(), grid.Barbera(), nil, Options{}, nil); err != nil {
		t.Errorf("empty scenario list: %v", err)
	}
	if _, err := Run(context.Background(), grid.Barbera(),
		[]Scenario{{Soil: nil}}, Options{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Run(context.Background(), grid.Barbera(),
		[]Scenario{{Soil: soil.NewUniform(0.02), GPR: -5}}, Options{}); err == nil {
		t.Error("negative GPR accepted")
	}
	if err := Stream(context.Background(), nil,
		[]Scenario{{Soil: soil.NewUniform(0.02)}}, Options{}, nil); err == nil {
		t.Error("nil grid accepted")
	}
	// The compressed tier is refused before any work starts: emit is never
	// called.
	hm := Options{Config: core.Config{Solver: core.SolverHMatrix}}
	err := Stream(context.Background(), grid.Barbera(),
		[]Scenario{{Soil: soil.NewUniform(0.02)}}, hm, func(Result) error {
			t.Error("emit called under SolverHMatrix")
			return nil
		})
	if !errors.Is(err, ErrUnsupportedSolver) {
		t.Errorf("SolverHMatrix: err = %v, want ErrUnsupportedSolver", err)
	}
	if _, err := Run(context.Background(), grid.Barbera(),
		[]Scenario{{Soil: soil.NewUniform(0.02)}}, hm); !errors.Is(err, ErrUnsupportedSolver) {
		t.Errorf("Run under SolverHMatrix: err = %v, want ErrUnsupportedSolver", err)
	}
}
