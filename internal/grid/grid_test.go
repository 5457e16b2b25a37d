package grid

import (
	"math"
	"strings"
	"testing"

	"earthing/internal/geom"
)

func TestValidate(t *testing.T) {
	g := &Grid{}
	if g.Validate() == nil {
		t.Error("empty grid accepted")
	}
	g.AddConductor(geom.V(0, 0, 0.8), geom.V(10, 0, 0.8), 0.006)
	if err := g.Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
	bad := &Grid{}
	bad.AddConductor(geom.V(0, 0, 0.8), geom.V(10, 0, 0.8), -1)
	if bad.Validate() == nil {
		t.Error("negative radius accepted")
	}
	bad = &Grid{}
	bad.AddConductor(geom.V(0, 0, 0.8), geom.V(0, 0, 0.8), 0.006)
	if bad.Validate() == nil {
		t.Error("zero-length conductor accepted")
	}
	bad = &Grid{}
	bad.AddConductor(geom.V(0, 0, -0.5), geom.V(10, 0, 0.8), 0.006)
	if bad.Validate() == nil {
		t.Error("above-surface conductor accepted")
	}
	bad = &Grid{}
	bad.AddConductor(geom.V(0, 0, 0.8), geom.V(0.01, 0, 0.8), 0.006)
	if bad.Validate() == nil {
		t.Error("thin-wire violation accepted")
	}
}

func TestGridGeometryQueries(t *testing.T) {
	g := &Grid{}
	g.AddConductor(geom.V(0, 0, 0.8), geom.V(10, 0, 0.8), 0.006)
	g.AddRod(5, 0, 0.8, 1.5, 0.007)
	if math.Abs(g.TotalLength()-11.5) > 1e-12 {
		t.Errorf("TotalLength = %v", g.TotalLength())
	}
	if g.NumRods() != 1 {
		t.Errorf("NumRods = %d", g.NumRods())
	}
	min, max := g.DepthRange()
	if min != 0.8 || max != 2.3 {
		t.Errorf("DepthRange = %v, %v", min, max)
	}
	if g.PlanArea() != 0 { // zero-height bounding rectangle
		t.Errorf("PlanArea = %v", g.PlanArea())
	}
}

func TestRectMeshCounts(t *testing.T) {
	g := RectMesh(0, 0, 30, 20, 4, 3, 0.8, 0.006)
	// 4 lines with 2 spans each (y) + 3 lines with 3 spans each (x).
	if want := 4*2 + 3*3; len(g.Conductors) != want {
		t.Errorf("conductors = %d want %d", len(g.Conductors), want)
	}
	m, err := Discretize(g, Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDoF != 12 { // 4×3 crossings
		t.Errorf("DoF = %d want 12", m.NumDoF)
	}
	if g.PlanArea() != 600 {
		t.Errorf("PlanArea = %v", g.PlanArea())
	}
}

func TestBarberaMatchesPaperCounts(t *testing.T) {
	g := Barbera()
	m, err := BarberaMesh()
	if err != nil {
		t.Fatal(err)
	}
	// The paper: 408 segments, 408 linear elements.
	if len(g.Conductors) != 408 || len(m.Elements) != 408 {
		t.Errorf("Barberá segments = %d, elements = %d, want 408", len(g.Conductors), len(m.Elements))
	}
	// Published DoF is 238; the synthesized lattice yields a close count.
	if m.NumDoF < 200 || m.NumDoF > 260 {
		t.Errorf("Barberá DoF = %d, want ≈238", m.NumDoF)
	}
	// Triangle 143 × 89 m, all at 0.8 m depth.
	b := g.Bounds()
	if math.Abs(b.Size().X-89) > 1e-9 || math.Abs(b.Size().Y-143) > 1e-9 {
		t.Errorf("Barberá plan size = %v", b.Size())
	}
	min, max := g.DepthRange()
	if min != 0.8 || max != 0.8 {
		t.Errorf("Barberá depth range %v–%v", min, max)
	}
	if g.NumRods() != 0 {
		t.Error("Barberá should have no rods")
	}
	// Every conductor strictly inside the triangle x/89 + y/143 ≤ 1.
	for _, c := range g.Conductors {
		for _, p := range []geom.Vec3{c.Seg.A, c.Seg.B} {
			if p.X/89+p.Y/143 > 1+1e-9 {
				t.Fatalf("conductor endpoint outside triangle: %v", p)
			}
		}
	}
}

func TestBalaidosMatchesPaperCounts(t *testing.T) {
	g := Balaidos()
	rods := g.NumRods()
	horiz := len(g.Conductors) - rods
	if horiz != 107 {
		t.Errorf("Balaidos horizontal conductors = %d, want 107", horiz)
	}
	if rods != 67 {
		t.Errorf("Balaidos rods = %d, want 67", rods)
	}
	m, err := BalaidosMesh()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Elements) != 241 { // 107 + 2·67, the paper's discretization
		t.Errorf("Balaidos elements = %d, want 241", len(m.Elements))
	}
	// Rod geometry: 1.5 m long, diameter 14 mm, tops at grid depth.
	for _, c := range g.Conductors {
		if !c.Seg.IsVertical(1e-9) {
			continue
		}
		if math.Abs(c.Length()-1.5) > 1e-9 || math.Abs(c.Radius-0.007) > 1e-12 {
			t.Fatalf("rod geometry wrong: len=%v r=%v", c.Length(), c.Radius)
		}
		if c.Seg.A.Z != 0.8 {
			t.Fatalf("rod top depth = %v", c.Seg.A.Z)
		}
	}
}

func TestDiscretizeSubdivision(t *testing.T) {
	g := HorizontalWire(0, 0, 0.8, 10, 0.006)
	m, err := Discretize(g, Linear, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Elements) != 4 {
		t.Errorf("elements = %d want 4", len(m.Elements))
	}
	if m.NumDoF != 5 {
		t.Errorf("DoF = %d want 5", m.NumDoF)
	}
	// Elements must chain: each interior node shared by two elements.
	if m.Elements[0].DoF[1] != m.Elements[1].DoF[0] {
		t.Error("adjacent elements do not share a node")
	}
	// Total length preserved.
	if math.Abs(m.TotalLength()-10) > 1e-9 {
		t.Errorf("TotalLength = %v", m.TotalLength())
	}
}

func TestDiscretizeConstantKind(t *testing.T) {
	g := RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	m, err := Discretize(g, Constant, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDoF != len(m.Elements) {
		t.Errorf("constant mesh DoF %d ≠ elements %d", m.NumDoF, len(m.Elements))
	}
	for i, e := range m.Elements {
		if e.DoF[0] != i {
			t.Errorf("element %d DoF = %d", i, e.DoF[0])
		}
		if m.NodePos[i] != e.Seg.Midpoint() {
			t.Errorf("constant node position not at midpoint")
		}
	}
	if m.DoFCount() != 1 {
		t.Error("DoFCount wrong for constant")
	}
}

func TestNodeSharingAtCrossings(t *testing.T) {
	// A plus-shaped grid: 4 conductors meeting at the center.
	g := &Grid{}
	c := geom.V(0, 0, 0.8)
	for _, p := range []geom.Vec3{geom.V(5, 0, 0.8), geom.V(-5, 0, 0.8), geom.V(0, 5, 0.8), geom.V(0, -5, 0.8)} {
		g.AddConductor(c, p, 0.006)
	}
	m, err := Discretize(g, Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDoF != 5 { // center + 4 tips
		t.Errorf("DoF = %d want 5", m.NumDoF)
	}
	center := m.Elements[0].DoF[0]
	for _, e := range m.Elements[1:] {
		if e.DoF[0] != center {
			t.Error("center node not shared")
		}
	}
}

func TestMeshStats(t *testing.T) {
	m, err := BalaidosMesh()
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Elements != 241 || s.DoF != m.NumDoF {
		t.Errorf("stats = %+v", s)
	}
	if s.MinLen <= 0 || s.MaxLen < s.MinLen {
		t.Errorf("length stats = %+v", s)
	}
	if s.MinDepth != 0.8 || math.Abs(s.MaxDepth-2.3) > 1e-12 {
		t.Errorf("depth stats = %+v", s)
	}
	if math.Abs(s.TotalLength-m.TotalLength()) > 1e-9 {
		t.Error("TotalLength mismatch")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	g := Balaidos()
	var sb strings.Builder
	if err := Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name {
		t.Errorf("name = %q want %q", back.Name, g.Name)
	}
	if len(back.Conductors) != len(g.Conductors) {
		t.Fatalf("conductors = %d want %d", len(back.Conductors), len(g.Conductors))
	}
	if back.NumRods() != g.NumRods() {
		t.Errorf("rods = %d want %d", back.NumRods(), g.NumRods())
	}
	if math.Abs(back.TotalLength()-g.TotalLength()) > 1e-3 {
		t.Errorf("total length %v vs %v", back.TotalLength(), g.TotalLength())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"conductor 1 2 3",                    // wrong arity
		"wombat 1 2 3",                       // unknown directive
		"conductor 0 0 0.8 10 0 0.8 notanum", // bad float
		"name",                               // missing value
		"rod 0 0 0.8 1.5 -0.007",             // fails validation
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := `
# a header comment
name test # trailing comment
conductor 0 0 0.8 10 0 0.8 0.006  # inline
rod 5 0 0.8 1.5 0.007
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "test" || len(g.Conductors) != 2 {
		t.Errorf("parsed %+v", g)
	}
}

func TestPerimeterPoint(t *testing.T) {
	w, h := 80.0, 60.0
	cases := []struct {
		s    float64
		x, y float64
	}{
		{0, 0, 0}, {40, 40, 0}, {80, 80, 0}, {110, 80, 30},
		{140, 80, 60}, {180, 40, 60}, {220, 0, 60}, {250, 0, 30},
		{280, 0, 0}, // wraps
	}
	for _, c := range cases {
		x, y := PerimeterPoint(w, h, c.s)
		if math.Abs(x-c.x) > 1e-9 || math.Abs(y-c.y) > 1e-9 {
			t.Errorf("PerimeterPoint(%v) = (%v,%v), want (%v,%v)", c.s, x, y, c.x, c.y)
		}
	}
}

func TestGradedSpacings(t *testing.T) {
	xs := gradedSpace(0, 100, 11, 0.5)
	if xs[0] != 0 || math.Abs(xs[10]-100) > 1e-12 {
		t.Fatalf("endpoints wrong: %v", xs)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("not monotone at %d: %v", i, xs)
		}
	}
	// Edge spacings smaller than the central one.
	edge := xs[1] - xs[0]
	center := xs[6] - xs[5]
	if edge >= center {
		t.Errorf("edge spacing %v not below center %v", edge, center)
	}
	// β = 0 degenerates to linspace.
	lin := linspace(0, 100, 11)
	for i, v := range gradedSpace(0, 100, 11, 0) {
		if math.Abs(v-lin[i]) > 1e-12 {
			t.Fatal("beta=0 is not linspace")
		}
	}
}

func TestGradedMeshesKeepTopology(t *testing.T) {
	flat := RectMesh(0, 0, 40, 30, 5, 4, 0.8, 0.006)
	graded := RectMeshGraded(0, 0, 40, 30, 5, 4, 0.8, 0.006, 0.5)
	if len(graded.Conductors) != len(flat.Conductors) {
		t.Errorf("conductor counts differ: %d vs %d", len(graded.Conductors), len(flat.Conductors))
	}
	if graded.Bounds().Size() != flat.Bounds().Size() {
		t.Error("grading changed the outline")
	}
	// The Barberá-sized graded triangle keeps the 408 segments.
	gt := TriangleMeshGraded(89, 143, 16, 28, 0.8, 0.0064, 0.6)
	if len(gt.Conductors) != 408 {
		t.Errorf("graded triangle conductors = %d", len(gt.Conductors))
	}
}

func TestGradedPanicsOnBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for beta ≥ 1")
		}
	}()
	gradedSpace(0, 1, 5, 1.0)
}

func TestSingleRodAndWireBuilders(t *testing.T) {
	r := SingleRod(1, 2, 0, 3, 0.01)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.NumRods() != 1 || r.TotalLength() != 3 {
		t.Error("SingleRod wrong")
	}
	w := HorizontalWire(0, 0, 0.6, 20, 0.005)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Conductors[0].Seg.A.Z != 0.6 || w.TotalLength() != 20 {
		t.Error("HorizontalWire wrong")
	}
}
