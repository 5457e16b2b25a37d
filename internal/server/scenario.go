// Package server implements groundd, the concurrent grounding-analysis
// service: an HTTP/JSON front end over the earthing facade that runs many
// scenarios in parallel, caches solved systems, enforces per-request
// deadlines with cooperative cancellation, sheds load with a bounded queue,
// and exposes its counters for observation.
//
// The economics come straight from Table 6.1 of the paper: matrix generation
// plus the direct solve is ≫ 99 % of a request, and both depend only on the
// (grid, soil, discretization) triple — not on the GPR, which scales the
// solution linearly, nor on worker counts or schedules, which change wall
// time but not results. Scenarios are therefore canonicalized into a
// deterministic cache key over exactly the result-affecting inputs, and a
// size-bounded LRU of solved systems turns repeat queries (any GPR, any
// raster window, any safety criteria) into pure post-processing.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"earthing"
	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// Request-size bounds. Each is checked before any work proportional to the
// quantity it bounds, so a single hostile request gets a 400 instead of
// exhausting the process.
const (
	// maxRectLines bounds the lattice lines per direction of a rect grid
	// and of an /v1/optimize search.
	maxRectLines = 512
	// maxRequestWorkers bounds a request's parallel width. A loop never
	// runs more workers than it has iterations, but a raster at a huge
	// width would still start one goroutine per point.
	maxRequestWorkers = 1024
	// maxScenarioElements bounds the discretization groundd solves. Matrix
	// generation keeps a 4-byte pair-class entry per element pair,
	// 4 B × M(M+1)/2 ≈ 134 MB at M = 8192 elements. The direct solve keeps
	// a packed matrix of 8 B × N(N+1)/2 over N DoF: a connected grid of M
	// linear elements has N ≤ M+1, ≈ 268 MB. A grid of disjoint conductors
	// (served with a bonding warning) can reach N = 2M, four times that.
	maxScenarioElements = 8192
)

// RodSpec is one vertical ground rod of a synthesized grid.
type RodSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Top is the burial depth of the rod top in metres.
	Top    float64 `json:"top"`
	Length float64 `json:"length"`
	Radius float64 `json:"radius"`
}

// RectSpec synthesizes a rectangular lattice grid, optionally edge-graded
// and with rods.
type RectSpec struct {
	X0     float64   `json:"x0"`
	Y0     float64   `json:"y0"`
	Width  float64   `json:"width"`
	Height float64   `json:"height"`
	NX     int       `json:"nx"`
	NY     int       `json:"ny"`
	Depth  float64   `json:"depth"`
	Radius float64   `json:"radius"`
	Beta   float64   `json:"beta,omitempty"` // edge grading ∈ [0, 1)
	Rods   []RodSpec `json:"rods,omitempty"`
}

// GridSpec selects the electrode geometry: exactly one of Builtin, Text or
// Rect must be set.
type GridSpec struct {
	// Builtin names a paper grid: "barbera" or "balaidos".
	Builtin string `json:"builtin,omitempty"`
	// Text is a grid in the text format of package grid (conductor/rod
	// lines).
	Text string `json:"text,omitempty"`
	// Rect synthesizes a rectangular lattice.
	Rect *RectSpec `json:"rect,omitempty"`
}

// SoilSpec selects the layered soil model.
type SoilSpec struct {
	// Kind is "uniform", "two-layer" or "multi".
	Kind string `json:"kind"`
	// Gamma1/Gamma2/H1 parameterize uniform and two-layer models
	// (conductivities in (Ω·m)⁻¹, thickness in m).
	Gamma1 float64 `json:"gamma1,omitempty"`
	Gamma2 float64 `json:"gamma2,omitempty"`
	H1     float64 `json:"h1,omitempty"`
	// Gammas/Thicknesses parameterize the N-layer model
	// (len(Thicknesses) = len(Gammas) − 1).
	Gammas      []float64 `json:"gammas,omitempty"`
	Thicknesses []float64 `json:"thicknesses,omitempty"`
}

// Scenario is the canonical unit of work: one grid in one soil under one
// discretization. GPR, Workers and Schedule deliberately do NOT enter the
// cache key — GPR scales results linearly and is applied at response time,
// while Workers/Schedule only change how fast the deterministic answer is
// produced.
type Scenario struct {
	Grid GridSpec `json:"grid"`
	Soil SoilSpec `json:"soil"`
	// GPR is the ground potential rise in volts (default 1).
	GPR float64 `json:"gpr,omitempty"`
	// MaxElemLen subdivides conductors (metres; 0 = one element per
	// conductor, the paper's discretization).
	MaxElemLen float64 `json:"maxElemLen,omitempty"`
	// RodElements forces vertical conductors to ≥ this many elements.
	RodElements int `json:"rodElements,omitempty"`
	// SeriesTol is the image-series truncation tolerance (0 = default 1e-7).
	SeriesTol float64 `json:"seriesTol,omitempty"`
	// Workers is the parallel width for this request (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Schedule is the loop schedule label, e.g. "dynamic,1" (default).
	Schedule string `json:"schedule,omitempty"`
}

// built is a validated, constructed scenario ready to solve. soil keeps the
// validated spec so the durable store can persist a rehydratable description
// of the scenario alongside the solution vector.
type built struct {
	grid  *earthing.Grid
	model earthing.SoilModel
	soil  SoilSpec
	cfg   earthing.Config
	gpr   float64
	key   string
}

// finitePos reports whether v is a positive finite float.
func finitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v)
}

// buildGrid constructs and validates the electrode geometry.
func (g GridSpec) buildGrid() (*earthing.Grid, error) {
	set := 0
	for _, on := range []bool{g.Builtin != "", g.Text != "", g.Rect != nil} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("grid: exactly one of builtin, text or rect must be set")
	}
	switch {
	case g.Builtin == "barbera":
		return earthing.Barbera(), nil
	case g.Builtin == "balaidos":
		return earthing.Balaidos(), nil
	case g.Builtin != "":
		return nil, fmt.Errorf("grid: unknown builtin %q (want barbera or balaidos)", g.Builtin)
	case g.Text != "":
		gr, err := earthing.ReadGrid(strings.NewReader(g.Text))
		if err != nil {
			return nil, err
		}
		return gr, nil
	default:
		r := g.Rect
		if !finitePos(r.Width) || !finitePos(r.Height) {
			return nil, fmt.Errorf("grid: rect size %g × %g must be positive", r.Width, r.Height)
		}
		if r.NX < 2 || r.NY < 2 {
			return nil, fmt.Errorf("grid: rect needs ≥ 2 lattice lines per direction, got %d × %d", r.NX, r.NY)
		}
		if r.NX > maxRectLines || r.NY > maxRectLines {
			return nil, fmt.Errorf("grid: rect lattice %d × %d too dense (max %d)", r.NX, r.NY, maxRectLines)
		}
		if !finitePos(r.Radius) || r.Depth < 0 || math.IsNaN(r.Depth) || math.IsInf(r.Depth, 0) {
			return nil, fmt.Errorf("grid: rect radius %g must be positive and depth %g non-negative", r.Radius, r.Depth)
		}
		if r.Beta < 0 || r.Beta >= 1 || math.IsNaN(r.Beta) {
			return nil, fmt.Errorf("grid: grading beta %g must be in [0, 1)", r.Beta)
		}
		gr := earthing.RectGridGraded(r.X0, r.Y0, r.Width, r.Height, r.NX, r.NY, r.Depth, r.Radius, r.Beta)
		for i, rod := range r.Rods {
			if !finitePos(rod.Length) || !finitePos(rod.Radius) || rod.Top < 0 {
				return nil, fmt.Errorf("grid: rod %d: length %g and radius %g must be positive, top %g non-negative",
					i, rod.Length, rod.Radius, rod.Top)
			}
			gr.AddRod(rod.X, rod.Y, rod.Top, rod.Length, rod.Radius)
		}
		if err := gr.Validate(); err != nil {
			return nil, err
		}
		return gr, nil
	}
}

// Build constructs and validates the soil model; exported so CLI sweep
// inputs can reuse the same JSON spec and validation as the server.
func (s SoilSpec) Build() (earthing.SoilModel, error) { return s.buildSoil() }

// buildSoil constructs and validates the soil model without tripping the
// panicking constructors on hostile input.
func (s SoilSpec) buildSoil() (earthing.SoilModel, error) {
	switch s.Kind {
	case "uniform":
		if !finitePos(s.Gamma1) {
			return nil, fmt.Errorf("soil: conductivity gamma1 %g must be positive and finite", s.Gamma1)
		}
		return earthing.UniformSoil(s.Gamma1), nil
	case "two-layer":
		if !finitePos(s.Gamma1) || !finitePos(s.Gamma2) {
			return nil, fmt.Errorf("soil: conductivities γ1=%g, γ2=%g must be positive and finite", s.Gamma1, s.Gamma2)
		}
		if !finitePos(s.H1) {
			return nil, fmt.Errorf("soil: layer thickness h1 %g must be positive and finite", s.H1)
		}
		return earthing.TwoLayerSoil(s.Gamma1, s.Gamma2, s.H1), nil
	case "multi":
		for _, g := range s.Gammas {
			if !finitePos(g) {
				return nil, fmt.Errorf("soil: conductivity %g must be positive and finite", g)
			}
		}
		for _, h := range s.Thicknesses {
			if !finitePos(h) {
				return nil, fmt.Errorf("soil: thickness %g must be positive and finite", h)
			}
		}
		return earthing.MultiLayerSoil(s.Gammas, s.Thicknesses)
	default:
		return nil, fmt.Errorf("soil: unknown kind %q (want uniform, two-layer or multi)", s.Kind)
	}
}

// buildConfig validates the envelope's discretization and execution knobs and
// assembles the engine configuration shared by every /v1/* endpoint (unit
// GPR, deterministic Cholesky). Factored out of build so grid-free requests
// (/v1/optimize synthesizes its own grids) reuse exactly the same validation.
func (sc Scenario) buildConfig(defaultWorkers int) (earthing.Config, error) {
	var cfg earthing.Config
	if sc.MaxElemLen < 0 || math.IsNaN(sc.MaxElemLen) {
		return cfg, fmt.Errorf("maxElemLen %g must be non-negative", sc.MaxElemLen)
	}
	if sc.RodElements < 0 {
		return cfg, fmt.Errorf("rodElements %d must be non-negative", sc.RodElements)
	}
	seriesTol := sc.SeriesTol
	if seriesTol == 0 {
		seriesTol = 1e-7 // the bem.Options default; pinned here so it keys identically
	}
	if seriesTol < 0 || seriesTol >= 1 || math.IsNaN(seriesTol) {
		return cfg, fmt.Errorf("seriesTol %g must be in (0, 1)", sc.SeriesTol)
	}
	if sc.Workers < 0 || sc.Workers > maxRequestWorkers {
		return cfg, fmt.Errorf("workers %d must be in [0, %d]", sc.Workers, maxRequestWorkers)
	}
	workers := sc.Workers
	if workers == 0 {
		workers = defaultWorkers
	}
	schedule := earthing.Schedule{}
	if sc.Schedule != "" {
		var err error
		schedule, err = earthing.ParseSchedule(sc.Schedule)
		if err != nil {
			return cfg, err
		}
	}
	return earthing.Config{
		// Solved at unit GPR; responses scale by the request GPR, so one
		// cache entry serves every fault level.
		GPR:         1,
		MaxElemLen:  sc.MaxElemLen,
		RodElements: sc.RodElements,
		// Cholesky is bit-identical across worker counts (the blocked factor
		// reduces every entry of L in the reference column order at any
		// width), which PCG's worker-partitioned dot products are not. The
		// cache key omits workers, so this is what keeps every body
		// independent of which request solved first; and the factorization
		// is exactly what the LRU amortizes.
		Solver: earthing.Cholesky,
		BEM: earthing.BEMOptions{
			Workers:   workers,
			Schedule:  schedule,
			SeriesTol: seriesTol,
		},
	}, nil
}

// build validates the scenario, constructs the grid and soil model, and
// derives the canonical cache key.
func (sc Scenario) build(defaultWorkers int) (*built, error) {
	g, err := sc.Grid.buildGrid()
	if err != nil {
		return nil, err
	}
	model, err := sc.Soil.buildSoil()
	if err != nil {
		return nil, err
	}
	gpr := sc.GPR
	if gpr == 0 {
		gpr = 1
	}
	if !finitePos(gpr) {
		return nil, fmt.Errorf("gpr %g must be positive and finite", sc.GPR)
	}
	cfg, err := sc.buildConfig(defaultWorkers)
	if err != nil {
		return nil, err
	}
	if err := checkElements(g, model, cfg); err != nil {
		return nil, err
	}
	return &built{
		grid:  g,
		model: model,
		soil:  sc.Soil,
		cfg:   cfg,
		gpr:   gpr,
		key:   scenarioKey(g, model, sc.MaxElemLen, sc.RodElements, cfg.BEM.SeriesTol),
	}, nil
}

// answer rescales res, a solution from any rung of the ladder (solved for
// any model with b's unit model, see scenarioKey), to b's own model and GPR:
// the one place a response meets the conductivity scale.
func (b *built) answer(res *earthing.Result) *earthing.Result {
	out, err := res.WithModel(b.model, b.gpr)
	if err != nil {
		// build validated the GPR, the only input WithModel rejects.
		panic(err)
	}
	return out
}

// checkElements refuses a grid whose discretization under model and cfg
// exceeds maxScenarioElements, counted by the engine's own rule without
// building the mesh.
func checkElements(g *earthing.Grid, model earthing.SoilModel, cfg earthing.Config) error {
	if n := core.CountElements(g, model, cfg); n > maxScenarioElements {
		return fmt.Errorf("discretization of %d elements exceeds the limit of %d", n, maxScenarioElements)
	}
	return nil
}

// scenarioKey hashes the result-affecting inputs into a deterministic key.
// The grid is canonicalized through its text serialization (so a rect spec
// and the equivalent hand-written conductor list key identically), the soil
// through soil.Canonical of its unit model (soil.Normalize), and the
// discretization knobs are appended verbatim. Every analysis solves the unit
// model and applies γ₁ afterwards (core.Result.WithModel), so models whose
// conductivities differ by one common factor share a key, one solve and one
// post memo on every rung. The soil=unit component marks that keying, so
// records and peer frames of older binaries, which solved the physical model,
// are never served. The kernel=flat-far-b16 component names the assembly
// kernel — the flat image ladder with its far-field table branch, admitting
// every horizontal class whose inner rule converges in at most 16 points
// (the Bernstein gate, see bem's farfield.go) — so records and peer frames of
// older binaries that assembled with another kernel (the reference kernel,
// the flat kernel walking the ladder for every class, ~1e-8 apart at the
// default series tolerance, or the table branch gated at 4 element lengths,
// flat-far4, whose Req differs in the last bits) miss too; the pairs=d4q42
// component names the
// pair-class arithmetic (D4-canonical classes at 42-bit quantization, see
// bem.PairClass), so frames from the per-pair arithmetic before it, ~1e-13
// apart, miss as well. The field evaluator's surface table branch (surface
// potentials of horizontal elements read from the ladder tables, ~1e-8
// relative from the walk at the default series tolerance) leaves the key
// literal unchanged: it moves no matrix entry, so no σ any rung stores or
// ships changes, and surface fields are always computed in-process from σ —
// postField memoizes them only in the local LRU, never in the store or a
// peer frame — so no rung serves a field another binary computed. Workers,
// schedules and GPR are excluded: they do not change the solution.
// TestScenarioKeyPinned pins the key bytes: changing them orphans every
// durable record and peer frame.
func scenarioKey(g *earthing.Grid, model earthing.SoilModel, maxElemLen float64, rodElements int, seriesTol float64) string {
	h := sha256.New()
	if err := grid.Write(h, g); err != nil {
		// The hash writer never fails; keep the compiler honest.
		panic(err)
	}
	unit, _ := soil.Normalize(model)
	//lint:ignore errdrop writing to a hash.Hash never fails
	fmt.Fprintf(h, "\n%s\nelemlen=%.17g;rodelems=%d;seriestol=%.17g;solver=cholesky;kind=linear;kernel=flat-far-b16;pairs=d4q42;soil=unit\n",
		soil.Canonical(unit), maxElemLen, rodElements, seriesTol)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
