package post

import (
	"context"
	"math"
	"strings"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// solved returns a small solved analysis shared by the tests.
func solved(t *testing.T) *core.Result {
	t.Helper()
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	res, err := core.AnalyzeCtx(context.Background(), g, soil.NewTwoLayer(0.005, 0.016, 1.0), core.Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// surface samples the surface potential of res·scale, failing tb on error.
func surface(tb testing.TB, res *core.Result, scale float64, opt SurfaceOptions) *Raster {
	tb.Helper()
	r, err := SurfacePotentialCtx(context.Background(), res.Assembler(), res.Mesh, res.Sigma, scale, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestSurfacePotentialRaster(t *testing.T) {
	res := solved(t)
	r := surface(t, res, res.GPR, SurfaceOptions{NX: 21, NY: 21, Margin: 10})
	if r.NX != 21 || r.NY != 21 || len(r.V) != 441 {
		t.Fatalf("raster dims %dx%d", r.NX, r.NY)
	}
	min, max := r.MinMax()
	if min <= 0 || max > 10_000 || !(max > min) {
		t.Errorf("raster range %v..%v", min, max)
	}
	// The maximum must be over the grid, not at the raster border.
	var bi, bj int
	best := math.Inf(-1)
	for j := 0; j < r.NY; j++ {
		for i := 0; i < r.NX; i++ {
			if v := r.At(i, j); v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	x, y := r.Pos(bi, bj)
	if x < 0 || x > 20 || y < 0 || y > 20 {
		t.Errorf("potential max at (%v,%v), outside the grid footprint", x, y)
	}
	// Raster values agree with direct evaluation.
	xd, yd := r.Pos(3, 17)
	direct := res.PotentialAt(geom.V(xd, yd, 0))
	if math.Abs(direct-r.At(3, 17)) > 1e-9*(1+math.Abs(direct)) {
		t.Errorf("raster %v vs direct %v", r.At(3, 17), direct)
	}
}

func TestSurfaceParallelMatchesSequential(t *testing.T) {
	res := solved(t)
	opt := SurfaceOptions{NX: 15, NY: 15, Margin: 5}
	seq := surface(t, res, res.GPR, func() SurfaceOptions { o := opt; o.Workers = 1; return o }())
	par := surface(t, res, res.GPR, func() SurfaceOptions { o := opt; o.Workers = 4; return o }())
	for i := range seq.V {
		if seq.V[i] != par.V[i] {
			t.Fatalf("parallel raster differs at %d: %v vs %v", i, seq.V[i], par.V[i])
		}
	}
}

func TestProfilePotential(t *testing.T) {
	res := solved(t)
	s, v, err := ProfilePotential(context.Background(), res.Assembler(), res.Sigma, res.GPR, 10, 10, 200, 10, 50, SurfaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 50 || len(v) != 50 {
		t.Fatal("wrong profile length")
	}
	if s[0] != 0 || math.Abs(s[49]-190) > 1e-9 {
		t.Errorf("arc coordinates wrong: %v..%v", s[0], s[49])
	}
	// Monotone decay once outside the grid.
	for i := 20; i+1 < 50; i++ {
		if v[i+1] >= v[i] {
			t.Errorf("potential not decaying at s=%v: %v -> %v", s[i], v[i], v[i+1])
		}
	}
}

func TestComputeVoltages(t *testing.T) {
	res := solved(t)
	vv, err := ComputeVoltagesCtx(context.Background(), res.Assembler(), res.Mesh, res.Sigma, res.GPR, 1, SurfaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vv.GPR != 10_000 {
		t.Errorf("GPR = %v", vv.GPR)
	}
	if vv.MaxTouch <= 0 || vv.MaxTouch >= 10_000 {
		t.Errorf("MaxTouch = %v", vv.MaxTouch)
	}
	if vv.MaxStep <= 0 || vv.MaxStep >= vv.GPR {
		t.Errorf("MaxStep = %v", vv.MaxStep)
	}
	if vv.MaxMesh < 0 || vv.MaxMesh > vv.GPR {
		t.Errorf("MaxMesh = %v", vv.MaxMesh)
	}
	// Touch voltage bounds mesh voltage (mesh points are a subset).
	if vv.MaxMesh > vv.MaxTouch+1e-9 {
		t.Errorf("mesh %v exceeds touch %v", vv.MaxMesh, vv.MaxTouch)
	}
}

func TestContoursClosedAroundPeak(t *testing.T) {
	// Synthetic radial field: contours of a cone are circles; check the
	// marching-squares output stays near the expected radius.
	r := &Raster{X0: -10, Y0: -10, DX: 0.25, DY: 0.25, NX: 81, NY: 81}
	r.V = make([]float64, 81*81)
	for j := 0; j < 81; j++ {
		for i := 0; i < 81; i++ {
			x, y := r.Pos(i, j)
			r.V[j*81+i] = 100 - math.Hypot(x, y)*10
		}
	}
	lines := Contours(r, []float64{50}) // radius 5 circle
	if len(lines) == 0 {
		t.Fatal("no contour lines")
	}
	nPts := 0
	for _, ln := range lines {
		for k := range ln.X {
			rad := math.Hypot(ln.X[k], ln.Y[k])
			if math.Abs(rad-5) > 0.15 {
				t.Fatalf("contour point at radius %v, want 5", rad)
			}
			nPts++
		}
	}
	if nPts < 40 {
		t.Errorf("suspiciously few contour points: %d", nPts)
	}
}

func TestEquallySpacedLevels(t *testing.T) {
	r := &Raster{NX: 2, NY: 1, V: []float64{0, 10}}
	lv := EquallySpacedLevels(r, 4)
	want := []float64{2, 4, 6, 8}
	for i := range want {
		if math.Abs(lv[i]-want[i]) > 1e-12 {
			t.Errorf("levels = %v", lv)
		}
	}
	if EquallySpacedLevels(&Raster{NX: 1, NY: 1, V: []float64{3}}, 2) != nil {
		t.Error("degenerate raster should give no levels")
	}
}

func TestChainSegmentsJoins(t *testing.T) {
	segs := []segment{
		{{0, 0}, {1, 0}},
		{{1, 0}, {2, 0}},
		{{2, 0}, {3, 1}},
		{{10, 10}, {11, 10}}, // disconnected
	}
	polys := chainSegments(segs)
	if len(polys) != 2 {
		t.Fatalf("polylines = %d want 2", len(polys))
	}
	lengths := map[int]bool{}
	for _, p := range polys {
		lengths[len(p)] = true
	}
	if !lengths[4] || !lengths[2] {
		t.Errorf("polyline lengths wrong: %v", polys)
	}
}

func TestWriteCSV(t *testing.T) {
	r := &Raster{X0: 0, Y0: 0, DX: 1, DY: 1, NX: 2, NY: 2, V: []float64{1, 2, 3, 4}}
	var sb strings.Builder
	if err := WriteCSV(&sb, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 || lines[0] != "x,y,v" {
		t.Errorf("csv = %q", sb.String())
	}
	if lines[4] != "1,1,4" {
		t.Errorf("last row = %q", lines[4])
	}
}

func TestWriteASCII(t *testing.T) {
	r := &Raster{X0: 0, Y0: 0, DX: 1, DY: 1, NX: 3, NY: 2, V: []float64{0, 5, 10, 10, 5, 0}}
	var sb strings.Builder
	if err := WriteASCII(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "range:") {
		t.Errorf("ascii output missing range line: %q", out)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 3 || len(rows[0]) != 3 {
		t.Errorf("ascii shape wrong: %q", out)
	}
}

func TestWriteSVG(t *testing.T) {
	res := solved(t)
	r := surface(t, res, res.GPR, SurfaceOptions{NX: 25, NY: 25})
	lines := Contours(r, EquallySpacedLevels(r, 8))
	if len(lines) == 0 {
		t.Fatal("no contours from solved potential")
	}
	var sb strings.Builder
	if err := WriteSVG(&sb, r, lines); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "<polyline") {
		t.Errorf("svg output malformed: %.80q…", out)
	}
}

func BenchmarkSurfacePotential(b *testing.B) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	res, err := core.AnalyzeCtx(context.Background(), g, soil.NewTwoLayer(0.005, 0.016, 1.0), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		surface(b, res, 1, SurfaceOptions{NX: 16, NY: 16})
	}
}

var _ = bem.Options{} // keep the import for documentation examples
