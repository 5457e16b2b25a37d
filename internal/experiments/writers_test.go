package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"earthing/internal/bem"
)

// The writer functions behind cmd/paperbench must produce their headline
// sections and survive end to end; the heavy numerics inside them are
// covered by the focused tests, so these use reduced sizes where available.

func TestBaselineFDMWriter(t *testing.T) {
	var buf bytes.Buffer
	if err := BaselineFDM(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BEM vs finite differences", "rod 3 m", "unknowns"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Both methods appear for both problems.
	if strings.Count(out, "BEM") < 2 || strings.Count(out, "FD") < 2 {
		t.Error("method rows missing")
	}
}

func TestAblationThreeLayerWriter(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationThreeLayer(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "double series") || !strings.Contains(out, "Hankel quadrature") {
		t.Errorf("sections missing:\n%s", out)
	}
	if !strings.Contains(out, "relative Req difference") {
		t.Error("summary line missing")
	}
}

func TestAblationSolverWriter(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationSolver(context.Background(), &buf, Quick()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cholesky:") || !strings.Contains(out, "pcg:") {
		t.Errorf("solver rows missing:\n%s", out)
	}
}

func TestAblationElementsWriter(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationElements(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "constant") < 1 || strings.Count(out, "linear") < 1 {
		t.Errorf("element rows missing:\n%s", out)
	}
}

func TestFig61Writer(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig61(context.Background(), &buf, Quick(), []int{2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "outer") || !strings.Contains(out, "inner") {
		t.Errorf("loop rows missing:\n%s", out)
	}
}

func TestTable62And63Writers(t *testing.T) {
	if testing.Short() {
		t.Skip("full schedule sweep is slow")
	}
	var buf bytes.Buffer
	if err := Table63(context.Background(), &buf, Quick(), []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 6.3") {
		t.Error("table header missing")
	}
}

func TestPredictLoopSpeedupShapes(t *testing.T) {
	// Outer with default dynamic,1 on 408 elements: near-perfect.
	if s := PredictLoopSpeedup(408, quickBemOptions(8)); s < 7.9 {
		t.Errorf("outer dynamic,1 at P=8: %v", s)
	}
	// Inner at very high P loses to granularity.
	optInner := quickBemOptions(64)
	optInner.Loop = bem.InnerLoop
	inner := PredictLoopSpeedup(408, optInner)
	outer := PredictLoopSpeedup(408, quickBemOptions(64))
	if inner >= outer {
		t.Errorf("inner (%v) should trail outer (%v) at P=64", inner, outer)
	}
	// P=1 is exactly 1.
	if s := PredictLoopSpeedup(408, quickBemOptions(1)); s != 1 {
		t.Errorf("sequential prediction %v", s)
	}
}

func quickBemOptions(p int) bem.Options {
	return bem.Options{Workers: p}
}
