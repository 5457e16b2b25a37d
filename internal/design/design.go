// Package design closes the loop the paper's introduction describes — "an
// accurate design of grounding systems … to assure the safety of the
// persons" — by searching grid layouts against resistance and IEEE Std 80
// safety targets. It is the programmatic form of the densify-until-safe
// iteration a design office performs with the CAD system of §5.
package design

import (
	"context"
	"errors"
	"fmt"

	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/post"
	"earthing/internal/safety"
	"earthing/internal/soil"
)

// Targets are the acceptance criteria of a design.
type Targets struct {
	// MaxReq is the maximum acceptable equivalent resistance in Ω
	// (0 disables the check).
	MaxReq float64
	// FaultCurrent is the design single-line-to-ground fault current in A;
	// the grid's GPR under it drives the voltage checks.
	FaultCurrent float64
	// Safety holds the IEEE Std 80 criteria; a zero FaultDuration disables
	// the voltage checks.
	Safety safety.Criteria
	// VoltageRes is the surface sampling resolution in metres for the
	// touch/step extraction (default 1, the IEEE step distance; coarser
	// values speed the search up at some risk of missing local maxima).
	VoltageRes float64
}

// enabled reports which checks are active.
func (t Targets) reqCheck() bool    { return t.MaxReq > 0 }
func (t Targets) safetyCheck() bool { return t.Safety.FaultDuration > 0 }

// Space is the layout family searched: square-ish lattices over a fixed
// rectangular area with optional perimeter rods.
type Space struct {
	Width, Height float64 // plan dimensions, m
	Depth         float64 // burial depth, m
	Radius        float64 // conductor radius, m
	// MinLines and MaxLines bound the lattice line count per direction
	// (defaults 3 and 12).
	MinLines, MaxLines int
	// PerimeterRods, when positive, adds that many rods of RodLength along
	// the perimeter of every candidate.
	PerimeterRods int
	RodLength     float64
	RodRadius     float64
}

func (s Space) withDefaults() (Space, error) {
	if s.Width <= 0 || s.Height <= 0 {
		return s, errors.New("design: non-positive plan dimensions")
	}
	if s.Depth <= 0 {
		s.Depth = 0.8
	}
	if s.Radius <= 0 {
		s.Radius = 0.006
	}
	if s.MinLines < 2 {
		s.MinLines = 3
	}
	if s.MaxLines < s.MinLines {
		s.MaxLines = s.MinLines + 9
	}
	if s.PerimeterRods > 0 {
		if s.RodLength <= 0 {
			s.RodLength = 3
		}
		if s.RodRadius <= 0 {
			s.RodRadius = 0.007
		}
	}
	return s, nil
}

// buildCandidate constructs the n-line lattice of the space.
func (s Space) buildCandidate(n int) *grid.Grid {
	g := grid.RectMesh(0, 0, s.Width, s.Height, n, n, s.Depth, s.Radius)
	g.Name = fmt.Sprintf("design-%dx%d", n, n)
	if s.PerimeterRods > 0 {
		perim := 2 * (s.Width + s.Height)
		for k := 0; k < s.PerimeterRods; k++ {
			x, y := perimeterPoint(s.Width, s.Height, perim*float64(k)/float64(s.PerimeterRods))
			g.AddRod(x, y, s.Depth, s.RodLength, s.RodRadius)
		}
	}
	return g
}

func perimeterPoint(w, h, s float64) (x, y float64) {
	switch {
	case s < w:
		return s, 0
	case s < w+h:
		return w, s - w
	case s < 2*w+h:
		return w - (s - w - h), h
	default:
		return 0, h - (s - 2*w - h)
	}
}

// Candidate is one evaluated layout.
type Candidate struct {
	Lines    int
	Grid     *grid.Grid
	Result   *core.Result
	GPR      float64 // FaultCurrent·Req, V
	Voltages post.Voltages
	Verdict  safety.Verdict
	Passes   bool
	// CostLength is the total electrode length — the material-cost proxy
	// the search minimizes.
	CostLength float64
}

// ErrNoFeasibleDesign is returned when no candidate in the space passes.
var ErrNoFeasibleDesign = errors.New("design: no candidate in the search space meets the targets")

// Search evaluates lattice densities in increasing cost order and returns
// the first (cheapest) candidate that meets every active target, plus the
// full evaluation trace. cfg configures the underlying analyses; its GPR is
// ignored (the fault current fixes it per candidate).
func Search(space Space, model soil.Model, tg Targets, cfg core.Config) (*Candidate, []Candidate, error) {
	space, err := space.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if tg.safetyCheck() && tg.FaultCurrent <= 0 {
		return nil, nil, errors.New("design: safety checks need a positive FaultCurrent")
	}
	if !tg.reqCheck() && !tg.safetyCheck() {
		return nil, nil, errors.New("design: no active targets")
	}

	var trace []Candidate
	for n := space.MinLines; n <= space.MaxLines; n++ {
		g := space.buildCandidate(n)
		cand, err := Evaluate(g, model, tg, cfg)
		if err != nil {
			return nil, trace, fmt.Errorf("design: %d-line candidate: %w", n, err)
		}
		cand.Lines = n
		trace = append(trace, *cand)
		if cand.Passes {
			return cand, trace, nil
		}
	}
	return nil, trace, ErrNoFeasibleDesign
}

// Evaluate analyzes one grid against the targets.
func Evaluate(g *grid.Grid, model soil.Model, tg Targets, cfg core.Config) (*Candidate, error) {
	cfg.GPR = 1
	res, err := core.Analyze(g, model, cfg)
	if err != nil {
		return nil, err
	}
	cand := &Candidate{
		Grid:       g,
		CostLength: g.TotalLength(),
		Passes:     true,
	}
	if tg.reqCheck() && res.Req > tg.MaxReq {
		cand.Passes = false
	}
	gpr := res.Req * tg.FaultCurrent
	cand.GPR = gpr

	cand.Result = res
	if tg.safetyCheck() {
		// Every output scales linearly with the GPR (§2), so the unit-GPR
		// solution is rescaled to the fault GPR for the voltage extraction —
		// no second solve needed.
		//lint:ignore ctxflow Evaluate takes no ctx (core.Analyze above runs uncancellable too)
		volt, err := post.ComputeVoltagesCtx(context.Background(), res.Assembler(), res.Mesh, res.Sigma, gpr, tg.VoltageRes,
			post.SurfaceOptions{Workers: cfg.BEM.Workers, Schedule: cfg.BEM.Schedule})
		if err != nil {
			return nil, err
		}
		cand.Voltages = volt
		v, err := tg.Safety.Check(cand.Voltages.MaxStep, cand.Voltages.MaxTouch, cand.Voltages.MaxMesh)
		if err != nil {
			return nil, err
		}
		cand.Verdict = v
		if !v.Safe() {
			cand.Passes = false
		}
	}
	return cand, nil
}
