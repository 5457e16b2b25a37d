package soil

import (
	"strings"
	"testing"

	"earthing/internal/geom"
)

// TestNormalize: the unit model has γ₁ exactly 1, the ratios, depths and
// series controls of the model, and a kernel γ₁ times the model's; a
// MultiLayer hands out one memoized unit model, so repeated analyses share
// its image expansion.
func TestNormalize(t *testing.T) {
	tl := NewTwoLayer(0.005, 0.016, 1.3)
	tl.Control = SeriesControl{Tol: 1e-12, MaxGroups: 700}
	ml, err := NewMultiLayer([]float64{0.004, 0.02, 0.008}, []float64{1.2, 2})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol, ml.MaxIntervals = 1e-9, 5000
	x, xi := geom.V(3, 1, 0.4), geom.V(0, 0, 0.8)
	for _, m := range []Model{NewUniform(0.02), tl, ml} {
		unit, g1 := Normalize(m)
		if g1 != m.Conductivity(1) || unit.Conductivity(1) != 1 {
			t.Errorf("%s: γ₁ %v, unit γ₁ %v", m.Describe(), g1, unit.Conductivity(1))
		}
		gm, dm := m.LayerParameters()
		gu, du := unit.LayerParameters()
		for i := range gm {
			if gu[i] != gm[i]/g1 {
				t.Errorf("%s: unit γ%d = %v, want %v", m.Describe(), i+1, gu[i], gm[i]/g1)
			}
		}
		for i := range dm {
			if du[i] != dm[i] {
				t.Errorf("%s: unit depth %d = %v, want %v", m.Describe(), i, du[i], dm[i])
			}
		}
		if got, want := unit.PointPotential(x, xi), g1*m.PointPotential(x, xi); relDiff(got, want) > 1e-12 {
			t.Errorf("%s: unit kernel %v, want γ₁ × %v", m.Describe(), got, want)
		}
	}
	if u, _ := Normalize(tl); u.(*TwoLayer).Control != tl.Control {
		t.Error("two-layer series control not kept")
	}
	u1, _ := Normalize(ml)
	u2, _ := Normalize(ml)
	if u1 != u2 {
		t.Error("MultiLayer unit model rebuilt between calls")
	}
	if u := u1.(*MultiLayer); u.Tol != ml.Tol || u.MaxIntervals != ml.MaxIntervals {
		t.Error("MultiLayer controls not kept")
	}
	if u, _ := Normalize(u1); u != u1 {
		t.Error("the unit model does not normalize to itself")
	}
	ml.Tol = 1e-7
	if u3, _ := Normalize(ml); u3 == u1 || u3.(*MultiLayer).Tol != 1e-7 {
		t.Error("stale unit model served after a control change")
	}
}

// TestCanonicalKindAndControls: the canonical string separates model kinds
// and series controls that the parameters alone would not, and is equal for
// the unit models of proportional models.
func TestCanonicalKindAndControls(t *testing.T) {
	two := NewTwoLayer(0.005, 0.016, 1)
	multi, err := NewMultiLayer([]float64{0.005, 0.016}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if Canonical(two) == Canonical(multi) {
		t.Errorf("two-layer and MultiLayer of the same parameters key alike: %s", Canonical(two))
	}
	tighter := NewTwoLayer(0.005, 0.016, 1)
	tighter.Control.Tol = 1e-12
	if Canonical(two) == Canonical(tighter) {
		t.Error("two-layer series control does not enter the canonical string")
	}
	multiTol, _ := NewMultiLayer([]float64{0.005, 0.016}, []float64{1})
	multiTol.MaxIntervals = 100
	if Canonical(multi) == Canonical(multiTol) {
		t.Error("MultiLayer MaxIntervals does not enter the canonical string")
	}
	double := NewTwoLayer(0.010, 0.032, 1)
	ua, _ := Normalize(two)
	ub, _ := Normalize(double)
	if Canonical(ua) != Canonical(ub) {
		t.Errorf("proportional models normalize apart: %s vs %s", Canonical(ua), Canonical(ub))
	}
	if !strings.HasPrefix(Canonical(NewUniform(1)), "uniform|") {
		t.Errorf("uniform rendering %q", Canonical(NewUniform(1)))
	}
}
