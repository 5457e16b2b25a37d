package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"earthing"
	"earthing/internal/geom"
	postproc "earthing/internal/post"
)

// maxOptimizeEvals and maxOptimizeStarts bound one /v1/optimize search: the
// whole search runs under a single admission slot, so an unbounded budget
// would let one request monopolize it until the deadline.
const (
	maxOptimizeEvals  = 4096
	maxOptimizeStarts = 16
)

// OptimizeRequest asks the design-loop engine to synthesize the cheapest grid
// layout meeting the IEEE Std 80 limits. It reuses the shared Scenario
// envelope for the soil model and the discretization/execution knobs; the
// envelope's grid MUST be omitted (this endpoint synthesizes candidate grids)
// and so must its GPR (each candidate's GPR is Req · faultCurrentA).
type OptimizeRequest struct {
	Scenario
	TimeoutMs int `json:"timeoutMs,omitempty"`

	// Site and electrical problem.
	Width         float64      `json:"width"`
	Height        float64      `json:"height"`
	FaultCurrentA float64      `json:"faultCurrentA"`
	Criteria      CriteriaSpec `json:"criteria"`

	// Layout family bounds and material parameters (0 = engine defaults).
	MinLines        int     `json:"minLines,omitempty"`
	MaxLines        int     `json:"maxLines,omitempty"`
	MaxRods         int     `json:"maxRods,omitempty"`
	MinDepth        float64 `json:"minDepth,omitempty"`
	MaxDepth        float64 `json:"maxDepth,omitempty"`
	DepthStep       float64 `json:"depthStep,omitempty"`
	ConductorRadius float64 `json:"conductorRadius,omitempty"`
	RodLength       float64 `json:"rodLength,omitempty"`
	RodRadius       float64 `json:"rodRadius,omitempty"`
	ConductorCost   float64 `json:"conductorCost,omitempty"`
	RodCost         float64 `json:"rodCost,omitempty"`
	VoltageResM     float64 `json:"voltageResM,omitempty"`

	// Search knobs (0 = engine defaults; evals and starts are capped).
	Starts        int     `json:"starts,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	MaxEvals      int     `json:"maxEvals,omitempty"`
	PenaltyWeight float64 `json:"penaltyWeight,omitempty"`
}

// OptimizeLine is one NDJSON line of the /v1/optimize response: an improving
// best-so-far design per generation, then a terminal line (final: true) with
// the search stats — or, after a mid-stream failure, the typed error fields.
type OptimizeLine struct {
	// Generation is the improving round's ordinal (1-based; 0 on the
	// terminal line).
	Generation int `json:"generation,omitempty"`
	// Evaluated, CacheHits, Failed are cumulative counts at emission time.
	Evaluated int `json:"evaluated,omitempty"`
	CacheHits int `json:"cacheHits,omitempty"`
	Failed    int `json:"failed,omitempty"`
	// Best is the incumbent best design (monotonically improving under the
	// feasible-first, cheapest-first order).
	Best *earthing.OptimizedDesign `json:"best,omitempty"`
	// Final marks the terminal summary line, which carries Stats and — for a
	// search that found no feasible design or failed mid-stream — the typed
	// Error/Code pair matching the pre-stream ErrorBody envelope.
	Final bool                    `json:"final,omitempty"`
	Stats *earthing.OptimizeStats `json:"stats,omitempty"`
	Error string                  `json:"error,omitempty"`
	Code  string                  `json:"code,omitempty"`
}

// build validates the request and assembles the engine spec and options.
func (req OptimizeRequest) build(defaultWorkers int) (earthing.OptimizeSpec, earthing.OptimizeOptions, error) {
	var spec earthing.OptimizeSpec
	var opt earthing.OptimizeOptions
	if req.Grid != (GridSpec{}) {
		return spec, opt, fmt.Errorf("optimize: grid must be omitted (the endpoint synthesizes candidate layouts)")
	}
	if req.GPR != 0 {
		return spec, opt, fmt.Errorf("optimize: gpr must be omitted (each candidate's GPR is Req · faultCurrentA)")
	}
	if !finitePos(req.Width) || !finitePos(req.Height) {
		return spec, opt, fmt.Errorf("optimize: site %g × %g must be positive and finite", req.Width, req.Height)
	}
	if !finitePos(req.FaultCurrentA) {
		return spec, opt, fmt.Errorf("optimize: faultCurrentA %g must be positive and finite", req.FaultCurrentA)
	}
	model, err := req.Soil.buildSoil()
	if err != nil {
		return spec, opt, err
	}
	crit, err := req.Criteria.criteria()
	if err != nil {
		return spec, opt, err
	}
	cfg, err := req.Scenario.buildConfig(defaultWorkers)
	if err != nil {
		return spec, opt, err
	}
	for name, v := range map[string]float64{
		"minDepth": req.MinDepth, "maxDepth": req.MaxDepth, "depthStep": req.DepthStep,
		"conductorRadius": req.ConductorRadius, "rodLength": req.RodLength,
		"rodRadius": req.RodRadius, "conductorCost": req.ConductorCost,
		"rodCost": req.RodCost, "voltageResM": req.VoltageResM,
		"penaltyWeight": req.PenaltyWeight,
	} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return spec, opt, fmt.Errorf("optimize: %s %g must be non-negative and finite", name, v)
		}
	}
	// Every candidate covers the site rectangle, so the site bounds the
	// voltage raster each candidate's safety check samples.
	site := geom.AABB{Max: geom.V(req.Width, req.Height, 0)}
	if _, err := postproc.PlanVoltageRaster(site, req.VoltageResM, postproc.MaxVoltagePoints); err != nil {
		return spec, opt, fmt.Errorf("optimize: %w", err)
	}
	if req.MinLines < 0 || req.MaxLines < 0 || req.MaxRods < 0 || req.Starts < 0 || req.MaxEvals < 0 {
		return spec, opt, fmt.Errorf("optimize: negative search bounds")
	}
	if req.Starts > maxOptimizeStarts {
		return spec, opt, fmt.Errorf("optimize: %d starts exceed the limit of %d", req.Starts, maxOptimizeStarts)
	}
	if req.MaxEvals > maxOptimizeEvals {
		return spec, opt, fmt.Errorf("optimize: %d evals exceed the limit of %d", req.MaxEvals, maxOptimizeEvals)
	}

	spec = earthing.OptimizeSpec{
		Width: req.Width, Height: req.Height,
		Model:           model,
		FaultCurrent:    req.FaultCurrentA,
		Safety:          crit,
		ConductorRadius: req.ConductorRadius,
		RodLength:       req.RodLength,
		RodRadius:       req.RodRadius,
		MinLines:        req.MinLines,
		MaxLines:        req.MaxLines,
		MaxRods:         req.MaxRods,
		MinDepth:        req.MinDepth,
		MaxDepth:        req.MaxDepth,
		DepthStep:       req.DepthStep,
		ConductorCost:   req.ConductorCost,
		RodCost:         req.RodCost,
		VoltageRes:      req.VoltageResM,
	}
	opt = earthing.OptimizeOptions{
		Config:        cfg,
		Starts:        req.Starts,
		Seed:          req.Seed,
		MaxEvals:      req.MaxEvals,
		PenaltyWeight: req.PenaltyWeight,
	}
	// The engine default budget (250 × starts) overshoots the request cap;
	// pin the capped default here so the bound above is authoritative.
	if opt.MaxEvals == 0 {
		opt.MaxEvals = 1024
	}
	return spec, opt, nil
}

// handleOptimize runs the grid-synthesis search and streams improving designs
// as NDJSON, exactly like /v1/sweep streams scenario results: pre-stream
// failures (400/422/429/503/504) use the typed error envelope with a proper
// status, mid-stream failures travel as a terminal error line.
//
// The whole search holds ONE admission slot: the engine already batches each
// candidate population through the sweep worker pool at the requested width.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.metrics.OptimizeRequests.Add(1)
	var req OptimizeRequest
	if herr := decode(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	spec, opt, err := req.build(s.cfg.Workers)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	opt.Config.HealthCheck = s.cfg.HealthCheck
	ctx, cancel, herr := s.requestCtx(r, req.TimeoutMs)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer cancel()
	release, herr := s.acquire(ctx)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer release()

	flusher, _ := w.(http.Flusher)
	sw := &sweepWriter{w: w, f: flusher}

	start := time.Now()
	best, stats, err := earthing.OptimizeStream(ctx, spec, opt, func(p earthing.OptimizeProgress) error {
		b := p.Best
		return sw.emit(OptimizeLine{
			Generation: p.Generation,
			Evaluated:  p.Evaluated,
			CacheHits:  p.CacheHits,
			Failed:     p.Failed,
			Best:       &b,
		})
	})
	s.metrics.OptimizeCandidates.Add(int64(stats.Evaluated))
	s.metrics.OptimizeNanos.Add(int64(time.Since(start)))

	if err != nil && !errors.Is(err, earthing.ErrNoFeasibleOptimize) {
		// Hard failure: cancellation/deadline, every candidate failed, or an
		// invalid spec the engine rejected.
		var herr *httpError
		switch {
		case ctx.Err() != nil:
			herr = s.mapCtxErr(ctx.Err())
		default:
			herr = &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
		}
		if !sw.wrote {
			s.writeError(w, herr)
			return
		}
		//lint:ignore errdrop the client is the only consumer of this line; if it is gone, so is the report
		sw.emit(OptimizeLine{Final: true, Error: herr.msg, Code: errorCode(herr.status)})
		return
	}

	// Terminal summary line: the final best (feasible, or least-violating
	// under the no-feasible sentinel) plus the search counters.
	line := OptimizeLine{Final: true, Best: best, Stats: &stats}
	if err != nil {
		line.Error = err.Error()
		line.Code = "no_feasible"
	}
	//lint:ignore errdrop the client is the only consumer of this line; if it is gone, so is the report
	sw.emit(line)
}
