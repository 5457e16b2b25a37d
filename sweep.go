package earthing

import (
	"context"

	"earthing/internal/sweep"
)

// SweepScenario is one variant in a batch solve: a soil model (Soil) plus
// the ground potential rise to report results at (GPR). A zero GPR
// inherits the shared Config's GPR and a negative one is an error; an
// empty ID gets "s<index>".
type SweepScenario = sweep.Scenario

// SweepResult is one solved scenario as emitted by Sweep/SweepStream; see
// the internal/sweep package for field semantics. Results carry the reuse
// tier that produced them (SweepAssembled, SweepSolveReuse, SweepFailed)
// and per-scenario assembly/solve/wall timings. A result with a non-nil Err
// (tier SweepFailed) is a per-scenario failure — a preprocessing error, a
// contained worker panic or a rejected health check — and its Res is nil;
// the other scenarios of the batch are unaffected. Always check Err before
// touching Res.
type SweepResult = sweep.Result

// SweepReuse labels how a sweep result was obtained.
type SweepReuse = sweep.Reuse

// Reuse tiers, cheapest satisfied first.
const (
	// SweepAssembled: the scenario's matrix was assembled and solved.
	SweepAssembled = sweep.ReuseAssembled
	// SweepSolveReuse: the soil model of an assembled scenario, or one with
	// every conductivity multiplied by a common factor, at any GPR — the
	// unit solve was rescaled (bit-identical to a fresh run).
	SweepSolveReuse = sweep.ReuseSolve
	// SweepFailed: the scenario's assembly job failed (preprocessing,
	// worker panic or health check); Result.Err carries the cause and Res
	// is nil. The rest of the batch completes normally.
	SweepFailed = sweep.ReuseFailed
)

// Sweep solves many scenario variants of one grid in a single batch,
// amortizing work the variants share: each distinct soil model is analyzed
// exactly once (one model at a time, each through Analyze itself, so memory
// stays at one model's), and scenarios differing only in GPR or in a common
// conductivity factor reuse the cached unit solve (every analysis solves the
// model normalized to γ₁ = 1).
// Results are returned in scenario order and each is bit-identical to a
// sequential Analyze of that scenario at the same worker count.
//
// The shared cfg supplies discretization, solver and parallel options; a
// scenario's GPR overrides cfg.GPR when non-zero, and a negative GPR or an
// invalid grid fails the sweep before any work starts.
//
// A failure confined to one scenario's model (a preprocessing error, a
// contained worker panic, a rejected health check) does not error the
// sweep: that scenario's Result comes back with Err set and Res nil (tier
// SweepFailed) while the rest of the batch completes.
func Sweep(ctx context.Context, g *Grid, scenarios []SweepScenario, cfg Config, opts ...Option) ([]SweepResult, error) {
	return sweep.Run(ctx, g, scenarios, sweep.Options{Config: applyOptions(cfg, opts)})
}

// SweepStream is Sweep with streaming delivery: emit is called once per
// scenario as soon as its result is ready, on the caller's goroutine: one
// distinct model at a time, in the order the models first appear, so
// scenarios sharing a model arrive together and may come out of scenario
// order (Result.Index gives the position). A non-nil error from emit aborts
// the sweep and is returned wrapped.
func SweepStream(ctx context.Context, g *Grid, scenarios []SweepScenario, cfg Config, emit func(SweepResult) error, opts ...Option) error {
	return sweep.Stream(ctx, g, scenarios, sweep.Options{Config: applyOptions(cfg, opts)}, emit)
}
