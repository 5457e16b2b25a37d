// Package designopt is the grid-synthesis engine that closes the paper's
// design loop: it searches layout parameters — lattice density per direction,
// perimeter rod count, burial depth — to minimize copper cost subject to the
// IEEE Std 80 touch/step/mesh limits. Each candidate runs through core's own
// analysis stages at the configured worker width, its assembler on the one
// image ladder the search shares across all its candidates (bem.NewShared).
//
// The search wraps optimize.NelderMead in a penalty method: every candidate's
// objective is its material cost inflated by a weighted term in the relative
// limit excesses, so infeasible layouts are ranked (closer to safe is better)
// instead of rejected, and the simplex can walk through the infeasible region
// toward the cheap feasible boundary. Candidates are quantized to the integer
// lattice/rod counts and a discrete depth step before evaluation; the
// quantization makes nearby simplex points collide, and collisions are served
// from an evaluation cache instead of re-solved — that cache is what turns
// "thousands of objective calls" into a few hundred solves.
//
// Determinism: a fixed (Seed, Starts, bounds) tuple reproduces the search
// bit-for-bit at any worker count. Candidate results are bit-identical across
// workers (the solver and raster contracts), the multi-start collector runs
// the K starts in lockstep rounds whose composition is a pure function of
// the replies so far, and each round's candidates are evaluated in sorted
// key order — no wall-clock or scheduling dependence anywhere in the loop.
package designopt

import (
	"errors"
	"fmt"
	"math"

	"earthing/internal/grid"
	"earthing/internal/post"
	"earthing/internal/safety"
	"earthing/internal/soil"
)

// Spec is the design problem: the site, the soil, the fault, the safety
// criteria, and the bounds of the layout family searched.
type Spec struct {
	// Width, Height are the substation plan dimensions in metres (required).
	Width, Height float64
	// Model is the layered soil model (required).
	Model soil.Model
	// FaultCurrent is the design single-line-to-ground fault current in A
	// (required); each candidate's GPR under it drives the voltage checks.
	FaultCurrent float64
	// Safety holds the IEEE Std 80 criteria (required; validated upfront).
	Safety safety.Criteria

	// ConductorRadius is the lattice conductor radius in m (default 0.006).
	ConductorRadius float64
	// RodLength, RodRadius size the perimeter rods (defaults 3 m, 0.007 m).
	RodLength, RodRadius float64

	// MinLines, MaxLines bound the lattice line count per direction
	// (defaults 2 and 14; candidates quantize to integers inside).
	MinLines, MaxLines int
	// MaxRods bounds the perimeter rod count (default 12; zero rods is
	// always allowed).
	MaxRods int
	// MinDepth, MaxDepth bound the burial depth in m (defaults 0.4, 1.2).
	MinDepth, MaxDepth float64
	// DepthStep is the depth quantization in m (default 0.05): candidate
	// depths snap to MinDepth + k·DepthStep, which is what makes distinct
	// simplex points collide onto cached evaluations.
	DepthStep float64

	// ConductorCost, RodCost weight the cost objective per metre of lattice
	// conductor and per metre of rod (defaults 1 and 1.5 — rods price above
	// plain conductor for the driving and couplers).
	ConductorCost, RodCost float64

	// VoltageRes is the surface sampling resolution in metres for the
	// touch/step extraction (default 1, the IEEE step distance).
	VoltageRes float64
}

// withDefaults validates the spec and fills the documented defaults.
func (s Spec) withDefaults() (Spec, error) {
	if s.Width <= 0 || s.Height <= 0 {
		return s, errors.New("designopt: non-positive plan dimensions")
	}
	if s.Model == nil {
		return s, errors.New("designopt: nil soil model")
	}
	if s.FaultCurrent <= 0 || math.IsNaN(s.FaultCurrent) || math.IsInf(s.FaultCurrent, 0) {
		return s, fmt.Errorf("designopt: invalid fault current %g", s.FaultCurrent)
	}
	if err := s.Safety.Validate(); err != nil {
		return s, err
	}
	if s.ConductorRadius <= 0 {
		s.ConductorRadius = 0.006
	}
	if s.RodLength <= 0 {
		s.RodLength = 3
	}
	if s.RodRadius <= 0 {
		s.RodRadius = 0.007
	}
	if s.MinLines < 2 {
		s.MinLines = 2
	}
	if s.MaxLines < s.MinLines {
		s.MaxLines = s.MinLines + 12
	}
	if s.MaxRods < 0 {
		return s, fmt.Errorf("designopt: negative MaxRods %d", s.MaxRods)
	}
	if s.MaxRods == 0 {
		s.MaxRods = 12
	}
	if s.MinDepth <= 0 {
		s.MinDepth = 0.4
	}
	if s.MaxDepth < s.MinDepth {
		s.MaxDepth = s.MinDepth + 0.8
	}
	if s.DepthStep <= 0 {
		s.DepthStep = 0.05
	}
	if s.ConductorCost <= 0 {
		s.ConductorCost = 1
	}
	if s.RodCost <= 0 {
		s.RodCost = 1.5
	}
	if s.VoltageRes <= 0 {
		s.VoltageRes = 1
	}
	return s, nil
}

// candidate is one quantized point of the search space.
type candidate struct {
	nx, ny, rods int
	depth        float64
}

// key is the candidate's cache identity: quantized coordinates only.
func (c candidate) key() string {
	return fmt.Sprintf("%dx%d r%d d%.4f", c.nx, c.ny, c.rods, c.depth)
}

// quantize snaps a continuous search point onto the candidate lattice.
func (s Spec) quantize(x []float64) candidate {
	clampInt := func(v float64, lo, hi int) int {
		n := int(math.Round(v))
		if n < lo {
			return lo
		}
		if n > hi {
			return hi
		}
		return n
	}
	d := s.MinDepth + math.Round((x[3]-s.MinDepth)/s.DepthStep)*s.DepthStep
	if d < s.MinDepth {
		d = s.MinDepth
	}
	if d > s.MaxDepth {
		d = s.MaxDepth
	}
	return candidate{
		nx:    clampInt(x[0], s.MinLines, s.MaxLines),
		ny:    clampInt(x[1], s.MinLines, s.MaxLines),
		rods:  clampInt(x[2], 0, s.MaxRods),
		depth: d,
	}
}

// bounds returns the continuous box the simplex moves in.
func (s Spec) bounds() (lo, hi []float64) {
	lo = []float64{float64(s.MinLines), float64(s.MinLines), 0, s.MinDepth}
	hi = []float64{float64(s.MaxLines), float64(s.MaxLines), float64(s.MaxRods), s.MaxDepth}
	return lo, hi
}

// buildGrid materializes the candidate layout: an nx×ny lattice over the
// site with rods spaced evenly along the perimeter (deterministic placement —
// rod positions are a pure function of the count).
func (s Spec) buildGrid(c candidate) *grid.Grid {
	g := grid.RectMesh(0, 0, s.Width, s.Height, c.nx, c.ny, c.depth, s.ConductorRadius)
	g.Name = c.key()
	perim := 2 * (s.Width + s.Height)
	for k := 0; k < c.rods; k++ {
		x, y := grid.PerimeterPoint(s.Width, s.Height, perim*float64(k)/float64(c.rods))
		g.AddRod(x, y, c.depth, s.RodLength, s.RodRadius)
	}
	return g
}

// LargestGrid returns the layout of the search's largest candidate after
// the spec's defaults: the MaxLines × MaxLines lattice with MaxRods perimeter
// rods, at MaxDepth. Another candidate can discretize into slightly more
// elements only through the ⌈length / MaxElemLen⌉ rounding of its shorter
// spans or rods crossing other soil interfaces, so a service can size a
// search by this grid before running it.
func (s Spec) LargestGrid() (*grid.Grid, error) {
	s, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	return s.buildGrid(candidate{nx: s.MaxLines, ny: s.MaxLines, rods: s.MaxRods, depth: s.MaxDepth}), nil
}

// cost is the copper objective in cost units: lattice length at the
// conductor price plus rod length at the rod price.
func (s Spec) cost(c candidate, g *grid.Grid) float64 {
	rodLen := float64(c.rods) * s.RodLength
	return (g.TotalLength()-rodLen)*s.ConductorCost + rodLen*s.RodCost
}

// Design is one scored candidate layout.
type Design struct {
	// NX, NY are the lattice line counts per direction.
	NX int `json:"nx"`
	NY int `json:"ny"`
	// Rods is the perimeter rod count.
	Rods int `json:"rods"`
	// Depth is the burial depth in m.
	Depth float64 `json:"depth"`
	// Grid is the materialized layout (not serialized).
	Grid *grid.Grid `json:"-"`
	// Cost is the copper cost the search minimizes.
	Cost float64 `json:"cost"`
	// Objective is Cost inflated by the constraint penalty; equal to Cost
	// for feasible designs.
	Objective float64 `json:"objective"`
	// Feasible reports whether every IEEE Std 80 criterion passed.
	Feasible bool `json:"feasible"`
	// Req is the equivalent resistance in Ω; GPR = Req·FaultCurrent in V.
	Req float64 `json:"req_ohm"`
	GPR float64 `json:"gpr_v"`
	// Voltages carries the extracted touch/step/mesh maxima at the fault GPR.
	Voltages post.Voltages `json:"voltages"`
	// Verdict is the IEEE Std 80 comparison of Voltages against the limits.
	Verdict safety.Verdict `json:"verdict"`
}

// better ranks designs: feasible beats infeasible, then lower objective,
// then the candidate key as a deterministic tie-break. This is the order the
// streamed best-so-far sequence is monotone under.
func better(a Design, aKey string, b Design, bKey string) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	//lint:ignore floatcmp exact objective tie falls through to the deterministic key tie-break
	if a.Objective != b.Objective {
		return a.Objective < b.Objective
	}
	return aKey < bKey
}
