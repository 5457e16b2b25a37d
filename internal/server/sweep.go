package server

import (
	"fmt"
	"net/http"
	"time"

	"earthing"
)

// maxSweepScenarios bounds one sweep request; beyond it the request is
// rejected outright rather than queued (it would monopolize a slot).
const maxSweepScenarios = 256

// SweepScenarioSpec is one variant of a sweep: a soil model plus the GPR to
// report results at. Both fall back to the envelope's values (the soil when
// the per-scenario one is absent, the GPR when zero; the final default is
// 1 V, like /v1/solve).
type SweepScenarioSpec struct {
	// ID labels this scenario's output line (default "s<index>").
	ID   string   `json:"id,omitempty"`
	Soil SoilSpec `json:"soil,omitempty"`
	GPR  float64  `json:"gpr,omitempty"`
}

// SweepRequest asks for a batch solve of one grid under many soil/GPR
// variants. It embeds the shared Scenario envelope: the grid and the
// discretization/execution knobs are common to every variant — that is what
// lets the engine amortize meshing and geometry — and the
// envelope's soil/GPR serve as defaults for scenarios that omit their own.
// The embedding promotes the same JSON field names the endpoint has always
// used (grid, maxElemLen, rodElements, seriesTol, workers, schedule), so
// legacy flattened requests decode unchanged.
type SweepRequest struct {
	Scenario
	Scenarios []SweepScenarioSpec `json:"scenarios"`
	TimeoutMs int                 `json:"timeoutMs,omitempty"`
	// AllowScaled is decoded for older clients and ignored: proportional
	// soils share one solve on every rung anyway (see scenarioKey).
	AllowScaled bool `json:"allowScaled,omitempty"`
}

// SweepLine is one NDJSON line of the /v1/sweep response: a solved scenario,
// or (as the final line) a sweep-level error. Lines stream in completion
// order; Index gives the scenario's position in the request.
type SweepLine struct {
	ID    string `json:"id,omitempty"`
	Index int    `json:"index"`
	Key   string `json:"key,omitempty"`
	// Cache is the reuse disposition: "hit" (served from the system cache),
	// "assembled" or "solve" (the engine's reuse tiers).
	Cache       string   `json:"cache,omitempty"`
	GPR         float64  `json:"gpr,omitempty"`
	ReqOhms     float64  `json:"reqOhms,omitempty"`
	CurrentAmps float64  `json:"currentAmps,omitempty"`
	Elements    int      `json:"elements,omitempty"`
	DoF         int      `json:"dof,omitempty"`
	AssembleMs  float64  `json:"assembleMs,omitempty"`
	SolveMs     float64  `json:"solveMs,omitempty"`
	WallMs      float64  `json:"wallMs,omitempty"`
	Warnings    []string `json:"warnings,omitempty"`
	Error       string   `json:"error,omitempty"`
	// Code carries the typed error code on the terminal (Index −1) error
	// line, matching the pre-stream ErrorBody envelope.
	Code string `json:"code,omitempty"`
}

// sweepWriter streams NDJSON lines, deferring the status line until the
// first write so pre-stream failures can still use proper status codes.
// Shared by every streaming endpoint (/v1/sweep, /v1/optimize).
type sweepWriter struct {
	w     http.ResponseWriter
	f     http.Flusher
	wrote bool
}

func (sw *sweepWriter) emit(line any) error {
	if !sw.wrote {
		sw.w.Header().Set("Content-Type", "application/x-ndjson")
		sw.w.WriteHeader(http.StatusOK)
		sw.wrote = true
	}
	if err := writeJSONLine(sw.w, line); err != nil {
		return err
	}
	if sw.f != nil {
		sw.f.Flush()
	}
	return nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.metrics.SweepRequests.Add(1)
	var req SweepRequest
	if herr := decode(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	if len(req.Scenarios) == 0 {
		s.writeError(w, badRequest(fmt.Errorf("sweep: at least one scenario required")))
		return
	}
	if len(req.Scenarios) > maxSweepScenarios {
		s.writeError(w, badRequest(fmt.Errorf("sweep: %d scenarios exceed the limit of %d",
			len(req.Scenarios), maxSweepScenarios)))
		return
	}

	// Build every scenario up front: one bad variant fails the whole request
	// before any work starts. Each variant is the shared envelope with its
	// own soil/GPR overriding the envelope defaults.
	builts := make([]*built, len(req.Scenarios))
	for i, spec := range req.Scenarios {
		sc := req.Scenario
		if spec.Soil.Kind != "" {
			sc.Soil = spec.Soil
		}
		if spec.GPR != 0 {
			sc.GPR = spec.GPR
		}
		b, err := sc.build(s.cfg.Workers)
		if err != nil {
			s.writeError(w, badRequest(fmt.Errorf("scenario %d: %w", i, err)))
			return
		}
		builts[i] = b
	}

	ctx, cancel, herr := s.requestCtx(r, req.TimeoutMs)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer cancel()

	// The whole sweep runs under ONE admission slot: internally it runs its
	// assemblies one at a time, each on a worker pool of the requested
	// width, so claiming a slot per scenario would overcommit the machine.
	release, herr := s.acquire(ctx)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer release()

	flusher, _ := w.(http.Flusher)
	sw := &sweepWriter{w: w, f: flusher}

	// Partition against the degradation ladder (after acquiring the slot, so
	// a concurrent request that just solved a shared system is visible). LRU
	// hits and store/peer rehydrations stream immediately as "hit" lines —
	// the body is bit-identical regardless of which tier served it, and the
	// serving tier is visible in the metrics — while the rest go to the
	// sweep engine.
	var missIdx []int
	for i, b := range builts {
		res, ok := s.cache.get(b.key)
		if ok {
			s.metrics.CacheHits.Add(1)
		} else {
			s.metrics.CacheMisses.Add(1)
			res, _, ok = s.tierGet(ctx, b)
		}
		if ok {
			if err := sw.emit(s.sweepLine(i, req.Scenarios[i].ID, b, res, "hit", nil)); err != nil {
				return // client gone; nothing to report to
			}
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return
	}

	scens := make([]earthing.SweepScenario, len(missIdx))
	for j, i := range missIdx {
		id := req.Scenarios[i].ID
		if id == "" {
			id = fmt.Sprintf("s%d", i)
		}
		scens[j] = earthing.SweepScenario{ID: id, Soil: builts[i].model, GPR: builts[i].gpr}
	}

	sweepCfg := builts[0].cfg
	sweepCfg.HealthCheck = s.cfg.HealthCheck
	// AssembleNanos is charged once per request, like /v1/solve: the
	// engine's wall time, when it assembled at least one job. A result's
	// Wall runs from the sweep's start, so summing them would re-count
	// every earlier job.
	start := time.Now()
	assembled := false
	err := earthing.SweepStream(ctx, builts[0].grid, scens, sweepCfg, func(sr earthing.SweepResult) error {
		i := missIdx[sr.Index]
		b := builts[i]
		if sr.Err != nil {
			// Per-scenario failure (contained worker panic or health-check
			// rejection): this scenario reports its error on its own line —
			// never cached — and the rest of the sweep keeps streaming.
			s.countFailure(sr.Err)
			return sw.emit(SweepLine{
				ID: sr.ID, Index: i, Key: b.key,
				Cache: string(sr.Reuse), Error: sr.Err.Error(),
			})
		}
		if sr.Reuse == earthing.SweepAssembled {
			s.metrics.Assemblies.Add(1)
			assembled = true
			// Cache the unit-GPR solution under the scenario key, exactly as
			// /v1/solve would have.
			if unit, err := sr.Res.WithGPR(1); err == nil {
				s.cache.put(b.key, unit)
				s.storePut(b, unit)
			}
		}
		return sw.emit(s.sweepLine(i, sr.ID, b, sr.Res, string(sr.Reuse), &sr))
	})
	if assembled {
		s.metrics.AssembleNanos.Add(int64(time.Since(start)))
	}
	if err != nil {
		herr := s.mapCtxErr(err)
		if !sw.wrote {
			s.writeError(w, herr)
			return
		}
		// Mid-stream failure: the status line is gone, so the error travels
		// as a terminal NDJSON line carrying the typed code.
		//lint:ignore errdrop the client is the only consumer of this line; if it is gone, so is the report
		sw.emit(SweepLine{Index: -1, Error: herr.msg, Code: errorCode(herr.status)})
	}
}

// sweepLine renders one scenario result through b.answer, with the
// current as gpr/Req, exactly as /v1/solve does, so the two endpoints report
// byte-identical numbers for the same scenario.
func (s *Server) sweepLine(index int, id string, b *built, res *earthing.Result, cache string, sr *earthing.SweepResult) SweepLine {
	if id == "" {
		id = fmt.Sprintf("s%d", index)
	}
	res = b.answer(res)
	line := SweepLine{
		ID:          id,
		Index:       index,
		Key:         b.key,
		Cache:       cache,
		GPR:         b.gpr,
		ReqOhms:     res.Req,
		CurrentAmps: b.gpr / res.Req,
		Elements:    len(res.Mesh.Elements),
		DoF:         len(res.Sigma),
		Warnings:    res.Warnings,
	}
	if sr != nil {
		line.AssembleMs = float64(sr.Assembly) / float64(time.Millisecond)
		line.SolveMs = float64(sr.Solve) / float64(time.Millisecond)
		line.WallMs = float64(sr.Wall) / float64(time.Millisecond)
	}
	return line
}
