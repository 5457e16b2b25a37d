// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 and §6) on the reproduced system: the Barberá and Balaidos
// analyses, the per-stage timing breakdown (Table 6.1), the schedule
// comparison (Table 6.2), the outer-vs-inner loop comparison (Figure 6.1),
// the Balaidos parallel runs (Table 6.3) and the surface potential maps
// (Figures 5.2 and 5.4).
//
// Each experiment prints the same rows/series the paper reports. Absolute
// times differ from the SGI Origin 2000; EXPERIMENTS.md records the
// shape comparison. Because the reproduction host may expose fewer physical
// cores than configured workers, timing experiments report both the
// measured wall-clock speed-up and the load-balance-predicted speed-up
// (Σ worker busy / max worker busy), which is the schedule property the
// paper's tables isolate.
package experiments

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// Quality trades fidelity for run time in the heavy experiments.
type Quality struct {
	// SeriesTol is the kernel series tolerance (default 1e-7; quick runs
	// use 1e-5 with <0.5 % effect on Req).
	SeriesTol float64
	// Repeats is the number of timing repetitions; the minimum is reported,
	// following the paper's "minimum of 4 CPU time measures". Default 1.
	Repeats int
	// GaussOrder for outer integration (default 4).
	GaussOrder int
}

// Default returns the full-fidelity quality.
func Default() Quality { return Quality{SeriesTol: 1e-7, Repeats: 1, GaussOrder: 4} }

// Quick returns a reduced-fidelity quality for smoke runs and tests.
func Quick() Quality { return Quality{SeriesTol: 1e-4, Repeats: 1, GaussOrder: 4} }

func (q Quality) withDefaults() Quality {
	d := Default()
	if q.SeriesTol <= 0 {
		q.SeriesTol = d.SeriesTol
	}
	if q.Repeats <= 0 {
		q.Repeats = d.Repeats
	}
	if q.GaussOrder <= 0 {
		q.GaussOrder = d.GaussOrder
	}
	return q
}

// bemOptions builds bem.Options for a given worker count and schedule.
func (q Quality) bemOptions(workers int) bem.Options {
	return bem.Options{
		Workers:    workers,
		SeriesTol:  q.SeriesTol,
		GaussOrder: q.GaussOrder,
	}
}

// SoilCase names a soil model of the evaluation.
type SoilCase struct {
	Name  string
	Model soil.Model
	// RodElements is the engine RodElements setting that lands the paper's
	// 241-element Balaidos discretization for this model.
	RodElements int
}

// BarberaUniform is the §5.1 uniform model: γ = 0.016 (Ω·m)⁻¹.
func BarberaUniform() soil.Model { return soil.NewUniform(0.016) }

// BarberaTwoLayer is the §5.1 two-layer model: γ1 = 0.005, γ2 = 0.016,
// h = 1 m.
func BarberaTwoLayer() soil.Model { return soil.NewTwoLayer(0.005, 0.016, 1.0) }

// BalaidosModels returns the three §5.2 soil models. Model C's rods cross
// the 1 m interface, so the engine's automatic interface split yields the
// two rod elements; models A and B get them via RodElements.
func BalaidosModels() []SoilCase {
	return []SoilCase{
		{Name: "A", Model: soil.NewUniform(0.020), RodElements: 2},
		{Name: "B", Model: soil.NewTwoLayer(0.0025, 0.020, 0.7), RodElements: 2},
		{Name: "C", Model: soil.NewTwoLayer(0.0025, 0.020, 1.0), RodElements: 1},
	}
}

// AnalyzeBarbera runs the Barberá grid under the given model.
func AnalyzeBarbera(ctx context.Context, model soil.Model, q Quality, workers int) (*core.Result, error) {
	q = q.withDefaults()
	m, err := grid.BarberaMesh()
	if err != nil {
		return nil, err
	}
	return core.AnalyzeMeshCtx(ctx, m, model, core.Config{
		GPR: 10_000, BEM: q.bemOptions(workers),
	})
}

// AnalyzeBalaidos runs the Balaidos grid under one of the §5.2 soil cases.
func AnalyzeBalaidos(ctx context.Context, c SoilCase, q Quality, workers int) (*core.Result, error) {
	q = q.withDefaults()
	return core.AnalyzeCtx(ctx, grid.Balaidos(), c.Model, core.Config{
		GPR:         10_000,
		RodElements: c.RodElements,
		BEM:         q.bemOptions(workers),
	})
}

// minDuration runs f repeats times and returns the minimum duration along
// with the last result, mirroring the paper's minimum-of-four protocol.
func minDuration(repeats int, f func() (time.Duration, error)) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < repeats; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// header prints a section header. It takes the buffered writer every
// experiment writer works through, so the write error is latched for the
// caller's final Flush rather than dropped.
func header(w *bufio.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// buffered wraps out for an experiment writer: all output goes through the
// returned bufio.Writer, whose sticky error the deferred flush surfaces
// into the caller's named return value (unless the caller already failed
// for another reason).
func buffered(out io.Writer) (*bufio.Writer, func(*error)) {
	bw := bufio.NewWriter(out)
	return bw, func(err *error) {
		if ferr := bw.Flush(); *err == nil {
			*err = ferr
		}
	}
}
