package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"earthing/internal/faultinject"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

func healthyConfig() Config {
	return Config{HealthCheck: true}
}

// TestHealthCheckPassesCleanRun: a sane scenario passes the health checks,
// records a finite condition estimate and matches the unchecked run exactly.
func TestHealthCheckPassesCleanRun(t *testing.T) {
	g := grid.RectMesh(0, 0, 15, 15, 2, 2, 0.8, 0.006)
	model := soil.NewUniform(0.02)
	checked, err := AnalyzeCtx(context.Background(), g, model, healthyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if checked.Condition <= 1 || math.IsInf(checked.Condition, 0) {
		t.Errorf("Condition = %v, want a finite estimate > 1", checked.Condition)
	}
	plain, err := AnalyzeCtx(context.Background(), g, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if checked.Req != plain.Req {
		t.Errorf("health-checked Req %v differs from unchecked %v", checked.Req, plain.Req)
	}
	for i := range checked.Sigma {
		if checked.Sigma[i] != plain.Sigma[i] {
			t.Fatalf("sigma[%d] differs between checked and unchecked runs", i)
		}
	}
	if len(checked.Warnings) != len(plain.Warnings) {
		t.Errorf("health check added warnings to a well-conditioned system: %v", checked.Warnings)
	}
}

// TestHealthCheckCatchesPoisonedSystem: a NaN injected into the load vector
// through the Solve fault point surfaces as a typed pre-solve HealthError
// instead of a solver failure or a garbage result.
func TestHealthCheckCatchesPoisonedSystem(t *testing.T) {
	defer faultinject.Set(faultinject.Solve, faultinject.PoisonNaN())()
	g := grid.RectMesh(0, 0, 15, 15, 2, 2, 0.8, 0.006)
	_, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), healthyConfig())
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HealthError", err)
	}
	if he.Reason != HealthNonFiniteSystem {
		t.Errorf("Reason = %q, want %q", he.Reason, HealthNonFiniteSystem)
	}
}

// TestHealthCheckUnguardedPoisonPassesThrough documents the hazard the checks
// exist for: without HealthCheck the same poisoned system reaches the solver
// and fails with an untyped (or misleading) error — or not at all.
func TestHealthCheckUnguardedPoisonPassesThrough(t *testing.T) {
	defer faultinject.Set(faultinject.Solve, faultinject.PoisonNaN())()
	g := grid.RectMesh(0, 0, 15, 15, 2, 2, 0.8, 0.006)
	_, err := AnalyzeCtx(context.Background(), g, soil.NewUniform(0.02), Config{})
	var he *HealthError
	if errors.As(err, &he) {
		t.Fatalf("unchecked run returned *HealthError %v; checks should be opt-in", he)
	}
}

// TestHealthCheckIllConditioned: a condition limit below the system's actual
// estimate fails the analysis with HealthIllConditioned, and a limit just
// above it passes with a degradation warning.
func TestHealthCheckIllConditioned(t *testing.T) {
	g := grid.RectMesh(0, 0, 15, 15, 2, 2, 0.8, 0.006)
	model := soil.NewUniform(0.02)
	base, err := AnalyzeCtx(context.Background(), g, model, healthyConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := healthyConfig()
	cfg.CondLimit = base.Condition / 2
	_, err = AnalyzeCtx(context.Background(), g, model, cfg)
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HealthError", err)
	}
	if he.Reason != HealthIllConditioned {
		t.Errorf("Reason = %q, want %q", he.Reason, HealthIllConditioned)
	}
	if he.Condition != base.Condition {
		t.Errorf("HealthError.Condition = %v, want %v", he.Condition, base.Condition)
	}

	cfg.CondLimit = base.Condition * 2 // within the 10⁴ warning band
	warned, err := AnalyzeCtx(context.Background(), g, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(warned.Warnings) == 0 {
		t.Error("no degradation warning despite condition estimate near the limit")
	}
}

// TestHealthErrorMessage pins the diagnostic format.
func TestHealthErrorMessage(t *testing.T) {
	e := &HealthError{Reason: HealthIllConditioned, Condition: 3.14e13, Detail: "limit 1e+12"}
	for _, want := range []string{"health check", HealthIllConditioned, "3.14e+13", "limit"} {
		if got := e.Error(); !strings.Contains(got, want) {
			t.Errorf("Error() = %q, missing %q", got, want)
		}
	}
}
