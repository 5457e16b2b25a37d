package report

import (
	"context"
	"strings"
	"testing"

	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/safety"
	"earthing/internal/soil"
)

func buildSample(t *testing.T) (*core.Result, *grid.Grid) {
	t.Helper()
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	g.AddRod(0, 0, 0.8, 2, 0.007)
	res, err := core.AnalyzeCtx(context.Background(), g, soil.NewTwoLayer(0.005, 0.016, 1.0), core.Config{GPR: 5000})
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

func TestBuildHTML(t *testing.T) {
	res, g := buildSample(t)
	var sb strings.Builder
	err := BuildHTML(context.Background(), &sb, res, g, Options{
		Title:      "Test substation",
		SurfaceNX:  16,
		SurfaceNY:  16,
		TopLeakage: 5,
		Criteria: safety.Criteria{
			FaultDuration: 0.5,
			SoilRho:       200,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"Test substation",
		"Equivalent resistance",
		"IEEE Std 80 verdict",
		"Leakage distribution",
		"<svg",          // embedded figures
		"equipotential", // contour caption
		"Matrix generation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Two embedded SVGs: plan + contours.
	if n := strings.Count(out, "<svg"); n != 2 {
		t.Errorf("embedded svg count = %d", n)
	}
	// The verdict renders as pass or fail, never both.
	pass := strings.Contains(out, "DESIGN PASSES")
	fail := strings.Contains(out, "DESIGN FAILS")
	if pass == fail {
		t.Errorf("verdict rendering wrong: pass=%v fail=%v", pass, fail)
	}
}

func TestBuildHTMLWithoutSafety(t *testing.T) {
	res, g := buildSample(t)
	var sb strings.Builder
	if err := BuildHTML(context.Background(), &sb, res, g, Options{SurfaceNX: 12, SurfaceNY: 12}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "IEEE Std 80 verdict") {
		t.Error("safety section rendered without criteria")
	}
	if !strings.Contains(sb.String(), "Grounding system analysis") {
		t.Error("default title missing")
	}
}
