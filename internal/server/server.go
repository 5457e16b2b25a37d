package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"earthing"
	"earthing/internal/core"
	"earthing/internal/faultinject"
	"earthing/internal/geom"
	postproc "earthing/internal/post"
	"earthing/internal/sched"
	"earthing/internal/store"
)

// StatusClientClosedRequest is the (de facto standard) status for requests
// abandoned by the client before the solve finished.
const StatusClientClosedRequest = 499

// Config configures a Server. The zero value serves with GOMAXPROCS worker
// slots, a queue of 4× that, a 30 s default / 120 s maximum deadline and a
// 64-entry system cache.
type Config struct {
	// MaxConcurrent bounds the number of scenarios solving or
	// post-processing at once (default GOMAXPROCS). Each admitted request
	// runs its parallel loops at the width the scenario asks for, so this
	// is a request-level bound, not a core-level one.
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for a slot
	// (default 4 × MaxConcurrent). Beyond it the server sheds load with 429
	// instead of building an unbounded backlog.
	QueueDepth int
	// DefaultTimeout applies when a request names none (default 30 s);
	// MaxTimeout clamps what a request may ask for (default 120 s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheEntries bounds the LRU of solved systems (default 64; negative
	// disables caching).
	CacheEntries int
	// CacheBytes bounds the LRU by the resident-byte estimate of its results
	// (Result.Footprint): a 64-entry cache of survey grids is a few MiB while
	// 64 interconnected systems can be GiBs, so bytes — not entries — is the
	// bound that protects the process. Default 256 MiB; negative disables the
	// byte bound (entry bound still applies).
	CacheBytes int64
	// Workers is the parallel width for scenarios that do not set one
	// (default GOMAXPROCS).
	Workers int
	// HealthCheck enables the engine's numerical health checks on every
	// solve (earthing.Config.HealthCheck): poisoned or ill-conditioned
	// systems are rejected with 422 instead of served.
	HealthCheck bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Store, when non-nil, is the durable scenario store: solved unit-GPR
	// densities are appended write-behind and replayed on the next start, so
	// a redeploy warm-starts instead of re-solving its whole working set.
	// The server owns the store from here on and closes it in Close.
	Store *store.Store
	// Fleet, when non-nil, enables cluster mode: scenario keys route to ring
	// owners and local misses ask the owner before solving (see FleetConfig).
	Fleet *FleetConfig
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	return c
}

// Server is the grounding-analysis HTTP service. Create with New; it
// implements http.Handler.
type Server struct {
	cfg     Config
	cache   *lruCache
	metrics Metrics
	// slots is the admission semaphore: holding a token is the licence to
	// run a solve or a post-processing raster.
	slots chan struct{}
	mux   *http.ServeMux
	// draining flips when shutdown starts: /readyz turns 503 and new work
	// is refused while in-flight requests finish (see RunUntilSignal).
	draining atomic.Bool

	// Fleet-mode state (see fleet.go): the durable store, the ring/peer
	// machinery, and the lifecycle plumbing of their background goroutines.
	store *store.Store
	fleet *fleet
	// replayReady closes when snapshot replay finishes (immediately when
	// there is no store); /readyz and the internal peer API gate on it.
	replayReady chan struct{}
	stop        chan struct{}
	bg          sync.WaitGroup
	closeOnce   sync.Once
}

// New constructs a Server. It panics on an invalid fleet membership — fleet
// deployments (cmd/groundd) use NewFleet, which reports the error instead.
func New(cfg Config) *Server {
	s, err := NewFleet(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewFleet constructs a Server, validating the fleet membership when cluster
// mode is configured.
func NewFleet(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cacheBytes := cfg.CacheBytes
	if cacheBytes < 0 {
		cacheBytes = 0
	}
	s := &Server{
		cfg:         cfg,
		cache:       newLRUCache(cfg.CacheEntries, cacheBytes),
		slots:       make(chan struct{}, cfg.MaxConcurrent),
		mux:         http.NewServeMux(),
		store:       cfg.Store,
		replayReady: make(chan struct{}),
		stop:        make(chan struct{}),
	}
	if cfg.Fleet != nil {
		f, err := newFleet(*cfg.Fleet)
		if err != nil {
			return nil, err
		}
		s.fleet = f
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/raster", s.handleRaster)
	s.mux.HandleFunc("POST /v1/safety", s.handleSafety)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//lint:ignore errdrop a failed health-probe write has no one left to report to
		fmt.Fprintln(w, "ok")
	})
	// Liveness (/healthz) and readiness (/readyz) deliberately differ: a
	// draining server is still alive (don't restart it) but must stop
	// receiving traffic (load balancers watch readiness).
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			//lint:ignore errdrop a failed readiness-probe write has no one left to report to
			fmt.Fprintln(w, "draining")
			return
		}
		// A node still replaying its snapshot must not receive traffic: its
		// warm-start working set is incomplete, so it would cold-solve
		// scenarios it is about to learn it already knows.
		if !s.replayDone() {
			w.WriteHeader(http.StatusServiceUnavailable)
			//lint:ignore errdrop a failed readiness-probe write has no one left to report to
			fmt.Fprintln(w, "replaying")
			return
		}
		//lint:ignore errdrop a failed readiness-probe write has no one left to report to
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /internal/v1/entry", s.handleInternalEntry)
	s.mux.HandleFunc("GET /internal/v1/ping", s.handleInternalPing)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if s.store != nil {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			defer close(s.replayReady)
			// Replay errors only surface directory-level I/O failures; data
			// damage is absorbed into the skipped-records counter, which
			// /v1/stats exposes.
			//lint:ignore errdrop replay failure leaves an empty (valid) index; the stats counters carry the evidence
			s.store.Replay()
		}()
	} else {
		close(s.replayReady)
	}
	if s.fleet != nil {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			s.probeLoop()
		}()
	}
	return s, nil
}

// ServeHTTP implements http.Handler. It is the last line of panic defence:
// a panic that escapes a handler is recovered here and answered with a 500
// diagnostic instead of tearing down the connection (and, under some serving
// setups, the process). Parallel-loop worker panics normally never reach
// this — sched contains them and they surface as *sched.PanicError values
// through the error mapping in solved.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			s.metrics.HandlerPanics.Add(1)
			// Best effort: if the handler already wrote a status line this
			// turns into a trailing body fragment, which is all HTTP allows.
			s.writeError(w, &httpError{
				status: http.StatusInternalServerError,
				msg:    fmt.Sprintf("internal panic: %v", v),
			})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Counters exposes the metrics for tests and for expvar publication.
func (s *Server) Counters() *Metrics { return &s.metrics }

// SetDraining flips the readiness state: a draining server answers 503 on
// /readyz and refuses new solves while in-flight work completes.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// httpError carries a status code with the message reported to the client.
type httpError struct {
	status int
	msg    string
	// code overrides the machine-readable error code; when empty writeError
	// derives it from the status.
	code string
	// retryAfter, when > 0, emits a Retry-After header (seconds) so
	// load-shedding responses (429/503) tell well-behaved clients when to
	// come back.
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(err error) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: err.Error()}
}

// ErrorBody is the typed error envelope every /v1/* handler emits: a stable
// machine-readable code, the human diagnostic, and (for load-shedding
// responses) the Retry-After hint mirrored into the body.
type ErrorBody struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after,omitempty"`
}

// errorCode maps a status to its stable error code. Clients switch on these
// rather than parsing messages or memorizing status-code nuances.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "draining"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case StatusClientClosedRequest:
		return "client_cancelled"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "error"
	}
}

// errorBody renders the typed envelope for an httpError.
func (e *httpError) errorBody() ErrorBody {
	code := e.code
	if code == "" {
		code = errorCode(e.status)
	}
	return ErrorBody{Code: code, Message: e.msg, RetryAfterS: e.retryAfter}
}

// writeError emits the typed JSON error envelope.
func (s *Server) writeError(w http.ResponseWriter, he *httpError) {
	w.Header().Set("Content-Type", "application/json")
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
	}
	w.WriteHeader(he.status)
	//lint:ignore errdrop encode-to-client failure means the client is gone; nothing to do
	json.NewEncoder(w).Encode(he.errorBody())
}

// Cache tiers of the degradation ladder, most to least preferred. tierSolve
// is the floor every other tier degrades to.
const (
	tierLRU   = "lru"   // resident solved system
	tierStore = "store" // rehydrated from the durable snapshot
	tierPeer  = "peer"  // fetched from the ring owner, checksum-verified
	tierSolve = "solve" // full pipeline run
)

// writeJSON emits a 200 with v as the body and the cache disposition in
// headers: X-Groundd-Cache is hit/miss as always, X-Groundd-Cache-Tier names
// the ladder rung that served it. The disposition deliberately travels
// out-of-band: response BODIES are bit-identical between cache hits and fresh
// solves — on any tier, on any node — which is the determinism contract the
// test suite pins down.
func (s *Server) writeJSON(w http.ResponseWriter, tier string, v any) {
	setDisposition(w, tier)
	//lint:ignore errdrop encode-to-client failure means the client is gone; nothing to do
	json.NewEncoder(w).Encode(v)
}

// setDisposition sets the JSON content type and the cache disposition
// headers of a 200 served from tier.
func setDisposition(w http.ResponseWriter, tier string) {
	w.Header().Set("Content-Type", "application/json")
	if tier != tierSolve {
		w.Header().Set("X-Groundd-Cache", "hit")
	} else {
		w.Header().Set("X-Groundd-Cache", "miss")
	}
	w.Header().Set("X-Groundd-Cache-Tier", tier)
}

// writeJSONLine emits one NDJSON line (Encode appends the newline).
func writeJSONLine(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// requestCtx derives the request's working context from its deadline knob.
func (s *Server) requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc, *httpError) {
	if timeoutMs < 0 {
		return nil, nil, badRequest(fmt.Errorf("timeoutMs %d must be non-negative", timeoutMs))
	}
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// mapCtxErr translates a cancellation into the load-shedding status codes,
// bumping the matching counter.
func (s *Server) mapCtxErr(err error) *httpError {
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.DeadlineExceeded.Add(1)
		return &httpError{status: http.StatusGatewayTimeout, msg: "deadline exceeded"}
	}
	if errors.Is(err, context.Canceled) {
		s.metrics.ClientCancelled.Add(1)
		return &httpError{status: StatusClientClosedRequest, msg: "client cancelled"}
	}
	return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
}

// acquire admits the request to a worker slot, waiting in the bounded queue
// if all slots are busy. It returns a release func on success; otherwise the
// 429/504/499 error to report.
func (s *Server) acquire(ctx context.Context) (func(), *httpError) {
	faultinject.Fire(faultinject.Admission, 0, nil)
	if s.draining.Load() {
		return nil, &httpError{
			status: http.StatusServiceUnavailable, msg: "server draining",
			retryAfter: s.retryAfterSeconds(),
		}
	}
	release := func() {
		<-s.slots
		s.metrics.BusyWorkers.Add(-1)
	}
	// Fast path: a slot is free.
	select {
	case s.slots <- struct{}{}:
		s.metrics.BusyWorkers.Add(1)
		return release, nil
	default:
	}
	// Join the bounded queue or shed immediately.
	if s.metrics.QueueDepth.Add(1) > int64(s.cfg.QueueDepth) {
		s.metrics.QueueDepth.Add(-1)
		s.metrics.RejectedQueueFull.Add(1)
		return nil, &httpError{
			status: http.StatusTooManyRequests, msg: "queue full",
			retryAfter: s.retryAfterSeconds(),
		}
	}
	defer s.metrics.QueueDepth.Add(-1)
	select {
	case s.slots <- struct{}{}:
		s.metrics.BusyWorkers.Add(1)
		return release, nil
	case <-ctx.Done():
		return nil, s.mapCtxErr(ctx.Err())
	}
}

// retryAfterSeconds estimates when shed load is worth retrying: the current
// backlog divided by the service width, at least one second. Derived from
// queue depth so the hint grows with the backlog instead of being a fixed
// constant every rejected client obeys in lockstep.
func (s *Server) retryAfterSeconds() int {
	backlog := s.metrics.QueueDepth.Load() + s.metrics.BusyWorkers.Load()
	ra := int(backlog) / s.cfg.MaxConcurrent
	if ra < 1 {
		ra = 1
	}
	return ra
}

// mapSolveErr translates a pipeline failure into its HTTP disposition,
// bumping the resilience counters: a contained worker panic is a server
// fault (500), a failed numerical health check is an unprocessable scenario
// (422) — the request was well-formed, its system just cannot be trusted.
func (s *Server) mapSolveErr(err error) *httpError {
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		s.metrics.WorkerPanics.Add(1)
		return &httpError{
			status: http.StatusInternalServerError,
			msg: fmt.Sprintf("worker panic (iteration %d, worker %d): %v",
				pe.Iteration, pe.Worker, pe.Value),
		}
	}
	var he *core.HealthError
	if errors.As(err, &he) {
		s.metrics.HealthFailures.Add(1)
	}
	return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
}

// solved obtains the unit-GPR solution for a scenario by walking the
// degradation ladder: the resident LRU, the durable store, the ring owner
// (fleet mode), and finally the full pipeline. The returned tier names the
// rung that served it. On the solve path the slot is HELD when solved
// returns, so the caller's post-processing runs under the same admission
// token; on an LRU hit the returned release is a no-op (cached
// post-processing for /v1/solve is a few arithmetic operations). The store
// and peer rungs rehydrate under the slot too — rebuilding an assembler is
// preprocessing-weight work, far cheaper than a solve but not free. needSlot
// forces slot acquisition even on a hit, for post-processing that is itself a
// parallel field evaluation (a post-memo miss, see postField).
func (s *Server) solved(ctx context.Context, b *built, needSlot bool) (res *earthing.Result, tier string, release func(), herr *httpError) {
	noop := func() {}
	if r, ok := s.cache.get(b.key); ok {
		s.metrics.CacheHits.Add(1)
		if !needSlot {
			return r, tierLRU, noop, nil
		}
		rel, herr := s.acquire(ctx)
		if herr != nil {
			return nil, tierLRU, noop, herr
		}
		return r, tierLRU, rel, nil
	}
	s.metrics.CacheMisses.Add(1)
	rel, herr := s.acquire(ctx)
	if herr != nil {
		return nil, tierSolve, noop, herr
	}
	// Double-check: another request may have solved this scenario while we
	// queued for the slot.
	if r, ok := s.cache.get(b.key); ok {
		s.metrics.CacheHits.Add(1)
		if !needSlot {
			rel()
			return r, tierLRU, noop, nil
		}
		return r, tierLRU, rel, nil
	}
	if r, t, ok := s.tierGet(ctx, b); ok {
		if !needSlot {
			rel()
			return r, t, noop, nil
		}
		return r, t, rel, nil
	}
	start := time.Now()
	b.cfg.HealthCheck = s.cfg.HealthCheck
	r, err := earthing.Analyze(ctx, b.grid, b.model, b.cfg)
	if err != nil {
		rel()
		if ctx.Err() != nil {
			return nil, tierSolve, noop, s.mapCtxErr(ctx.Err())
		}
		return nil, tierSolve, noop, s.mapSolveErr(err)
	}
	s.metrics.Assemblies.Add(1)
	s.metrics.AssembleNanos.Add(int64(time.Since(start)))
	s.cache.put(b.key, r)
	s.storePut(b, r)
	return r, tierSolve, rel, nil
}

// Values of the out-of-band X-Groundd-Post header on /v1/raster and
// /v1/safety responses: whether the unit-GPR field came from the entry's
// memo or from a field sweep. Bodies are byte-identical either way.
const (
	postMemoized = "memo"
	postComputed = "computed"
)

// postField returns the unit-GPR surface field pk of scenario b. A field
// memoized on the scenario's LRU entry is an LRU hit served without an
// admission slot, like a /v1/solve hit, so it never queues or is shed behind
// field sweeps still running. Otherwise the scenario comes off the solve
// ladder holding a slot, compute sweeps the field at unit GPR under that
// slot, and the field is attached to the entry for the next request. A
// *postproc.RasterSizeError from compute maps to 400.
func (s *Server) postField(ctx context.Context, b *built, pk postKey,
	compute func(*earthing.Result) (memoField, error)) (field memoField, tier, how string, herr *httpError) {
	if f, ok := s.cache.getPost(b.key, pk); ok {
		s.metrics.CacheHits.Add(1)
		s.metrics.PostMemoHits.Add(1)
		return f, tierLRU, postMemoized, nil
	}
	s.metrics.PostMemoMisses.Add(1)
	res, tier, release, herr := s.solved(ctx, b, true)
	if herr != nil {
		return nil, tier, postComputed, herr
	}
	defer release()
	// The ladder serves unit-GPR results; the copy pins that, so the field
	// is a memo for every GPR without mutating the shared cache entry.
	unit := *res
	unit.GPR = 1
	start := time.Now()
	f, err := compute(&unit)
	if err != nil {
		var rse *postproc.RasterSizeError
		if errors.As(err, &rse) {
			return nil, tier, postComputed, badRequest(err)
		}
		return nil, tier, postComputed, s.mapCtxErr(err)
	}
	s.metrics.PostNanos.Add(int64(time.Since(start)))
	s.cache.putPost(b.key, res, pk, f)
	return f, tier, postComputed, nil
}

// --- /v1/solve ---

// SolveRequest is a Scenario plus the request deadline.
type SolveRequest struct {
	Scenario
	// TimeoutMs bounds this request's wall time (0 = server default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// SolveResponse reports the design parameters of eq. 2.2 at the requested
// GPR.
type SolveResponse struct {
	Key string `json:"key"`
	// GPR echoes the ground potential rise the results are scaled to.
	GPR float64 `json:"gpr"`
	// ReqOhms is the equivalent grounding resistance (GPR-independent).
	ReqOhms float64 `json:"reqOhms"`
	// CurrentAmps is the total fault current at this GPR.
	CurrentAmps float64 `json:"currentAmps"`
	// Elements and DoF describe the discretization that was solved.
	Elements int      `json:"elements"`
	DoF      int      `json:"dof"`
	Warnings []string `json:"warnings,omitempty"`
}

func decode[T any](r *http.Request, into *T) *httpError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest(fmt.Errorf("bad request body: %w", err))
	}
	return nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.metrics.SolveRequests.Add(1)
	var req SolveRequest
	if herr := decode(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	b, err := req.Scenario.build(s.cfg.Workers)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	ctx, cancel, herr := s.requestCtx(r, req.TimeoutMs)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer cancel()
	res, tier, release, herr := s.solved(ctx, b, false)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer release()
	s.writeJSON(w, tier, SolveResponse{
		Key:         b.key,
		GPR:         b.gpr,
		ReqOhms:     res.Req,
		CurrentAmps: b.gpr / res.Req,
		Elements:    len(res.Mesh.Elements),
		DoF:         len(res.Sigma),
		Warnings:    res.Warnings,
	})
}

// --- /v1/raster ---

// RasterRequest asks for a sampled surface field of the solved scenario.
type RasterRequest struct {
	Scenario
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Kind is "potential" (default; the contour-plot field of Figs. 5.2/5.4)
	// or "step" (the per-metre step-voltage magnitude |E_h|·1 m).
	Kind string `json:"kind,omitempty"`
	// NX, NY are the raster dimensions (default 64 × 64, capped at 512).
	NX int `json:"nx,omitempty"`
	NY int `json:"ny,omitempty"`
	// Margin extends the raster beyond the grid bounds (metres, default 15).
	Margin float64 `json:"margin,omitempty"`
}

// RasterResponse carries the sampled field, row-major
// (V[j*NX+i] at (X0+i·DX, Y0+j·DY)), in volts at the requested GPR.
type RasterResponse struct {
	Key  string    `json:"key"`
	Kind string    `json:"kind"`
	GPR  float64   `json:"gpr"`
	X0   float64   `json:"x0"`
	Y0   float64   `json:"y0"`
	DX   float64   `json:"dx"`
	DY   float64   `json:"dy"`
	NX   int       `json:"nx"`
	NY   int       `json:"ny"`
	V    []float64 `json:"v"`
}

// rasterKey validates the field parameters of a /v1/raster request over a
// grid with the given bounds and returns their canonical memo key: kind, NX,
// NY and Margin after defaults, so requests that sample the same raster share
// one memo.
func rasterKey(bounds geom.AABB, kind string, nx, ny int, margin float64) (postKey, error) {
	if kind == "" {
		kind = "potential"
	}
	if kind != "potential" && kind != "step" {
		return postKey{}, fmt.Errorf("unknown raster kind %q (want potential or step)", kind)
	}
	// One sample per axis has no cell size (DX = extent/0) and samples NaN.
	if nx < 0 || ny < 0 || nx == 1 || ny == 1 || nx > 512 || ny > 512 {
		return postKey{}, fmt.Errorf("raster size %d × %d out of range (2 to 512, 0 for the default 64)", nx, ny)
	}
	if !(margin >= 0) || math.IsInf(margin, 1) {
		return postKey{}, fmt.Errorf("margin %g must be non-negative", margin)
	}
	o := earthing.SurfaceOptions{NX: nx, NY: ny, Margin: margin}.WithDefaults()
	// A margin that overflows the raster extent has no cell size either.
	w := (bounds.Max.X + o.Margin) - (bounds.Min.X - o.Margin)
	h := (bounds.Max.Y + o.Margin) - (bounds.Min.Y - o.Margin)
	if math.IsInf(w, 0) || math.IsInf(h, 0) {
		return postKey{}, fmt.Errorf("margin %g overflows the raster extent", margin)
	}
	return postKey{kind: kind, nx: o.NX, ny: o.NY, margin: o.Margin}, nil
}

// handleRaster serves a sampled surface field. The unit-GPR raster is
// memoized on the scenario's LRU entry, so a repeat at any GPR is one
// multiplication per sample and takes no admission slot; a memo miss holds a
// slot for the field sweep, because raster evaluation is a parallel loop
// comparable in weight to a small assembly.
func (s *Server) handleRaster(w http.ResponseWriter, r *http.Request) {
	s.metrics.RasterRequests.Add(1)
	var req RasterRequest
	if herr := decode(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	b, err := req.Scenario.build(s.cfg.Workers)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	pk, err := rasterKey(b.grid.Bounds(), req.Kind, req.NX, req.NY, req.Margin)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	ctx, cancel, herr := s.requestCtx(r, req.TimeoutMs)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer cancel()
	field, tier, how, herr := s.postField(ctx, b, pk, func(res *earthing.Result) (memoField, error) {
		opt := earthing.SurfaceOptions{
			NX: pk.nx, NY: pk.ny, Margin: pk.margin,
			Workers: b.cfg.BEM.Workers, Schedule: b.cfg.BEM.Schedule,
		}
		if pk.kind == "potential" {
			return earthing.SurfacePotential(ctx, res, opt)
		}
		return earthing.StepVoltageMap(ctx, res, opt)
	})
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	unit := field.(*earthing.Raster)
	w.Header().Set("X-Groundd-Post", how)
	s.writeRaster(w, tier, RasterResponse{
		Key: b.key, Kind: pk.kind, GPR: b.gpr,
		X0: unit.X0, Y0: unit.Y0, DX: unit.DX, DY: unit.DY,
		NX: unit.NX, NY: unit.NY,
	}, unit.V)
}

// rasterChunk is the write size of a streamed raster body.
const rasterChunk = 32 << 10

// writeRaster emits resp, whose V is nil, with V[i] = resp.GPR·unit[i]: the
// bytes writeJSON gives for the scaled raster, since gpr·V[i] is the very
// product a field sweep at scale gpr takes. The samples are formatted
// straight into a rasterChunk buffer, so a memo hit, which holds no
// admission slot, allocates no O(points) scaled copy or body. A non-finite
// sample, which JSON cannot carry, is a 500.
func (s *Server) writeRaster(w http.ResponseWriter, tier string, resp RasterResponse, unit []float64) {
	gpr := resp.GPR
	for _, u := range unit {
		if f := gpr * u; math.IsNaN(f) || math.IsInf(f, 0) {
			s.writeError(w, &httpError{status: http.StatusInternalServerError, msg: "raster holds a non-finite sample"})
			return
		}
	}
	head, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, &httpError{status: http.StatusInternalServerError, msg: err.Error()})
		return
	}
	// V is the last field, so the nil slice closes the object as "v":null}.
	buf := append(head[:len(head)-len("null}")], '[')
	setDisposition(w, tier)
	for i, u := range unit {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONFloat(buf, gpr*u)
		if len(buf) >= rasterChunk {
			if _, err := w.Write(buf); err != nil {
				return // the client is gone
			}
			buf = buf[:0]
		}
	}
	//lint:ignore errdrop write-to-client failure means the client is gone; nothing to do
	w.Write(append(buf, "]}\n"...))
}

// appendJSONFloat appends finite f as encoding/json writes a float64: the
// shortest round-trip decimal, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// --- /v1/safety ---

// CriteriaSpec is the JSON form of the IEEE Std 80 tolerable-limit inputs.
type CriteriaSpec struct {
	// FaultDurationS is the shock/clearing time in seconds.
	FaultDurationS float64 `json:"faultDurationS"`
	// SoilRho is the native surface soil resistivity, Ω·m.
	SoilRho float64 `json:"soilRho"`
	// SurfaceRho/SurfaceThicknessM describe the crushed-rock layer (0 = none).
	SurfaceRho        float64 `json:"surfaceRho,omitempty"`
	SurfaceThicknessM float64 `json:"surfaceThicknessM,omitempty"`
	// Weight is "50kg" (default) or "70kg".
	Weight string `json:"weight,omitempty"`
}

func (c CriteriaSpec) criteria() (earthing.SafetyCriteria, error) {
	crit := earthing.SafetyCriteria{
		FaultDuration:    c.FaultDurationS,
		SoilRho:          c.SoilRho,
		SurfaceRho:       c.SurfaceRho,
		SurfaceThickness: c.SurfaceThicknessM,
	}
	switch c.Weight {
	case "", "50kg":
		crit.Weight = earthing.Body50kg
	case "70kg":
		crit.Weight = earthing.Body70kg
	default:
		return crit, fmt.Errorf("safety: unknown body weight %q (want 50kg or 70kg)", c.Weight)
	}
	return crit, crit.Validate()
}

// SafetyRequest asks for touch/step/mesh voltages of the solved scenario
// checked against IEEE Std 80 limits.
type SafetyRequest struct {
	Scenario
	TimeoutMs int          `json:"timeoutMs,omitempty"`
	Criteria  CriteriaSpec `json:"criteria"`
	// StepResM is the surface sampling resolution in metres (default 1, the
	// IEEE step distance).
	StepResM float64 `json:"stepResM,omitempty"`
}

// SafetyResponse reports computed voltages, the tolerable limits and the
// verdict.
type SafetyResponse struct {
	Key string  `json:"key"`
	GPR float64 `json:"gpr"`
	// Computed worst-case voltages at this GPR (volts).
	StepV  float64 `json:"stepV"`
	TouchV float64 `json:"touchV"`
	MeshV  float64 `json:"meshV"`
	// Tolerable limits (volts); mesh shares the touch limit.
	StepLimitV  float64 `json:"stepLimitV"`
	TouchLimitV float64 `json:"touchLimitV"`
	StepOK      bool    `json:"stepOK"`
	TouchOK     bool    `json:"touchOK"`
	MeshOK      bool    `json:"meshOK"`
	Safe        bool    `json:"safe"`
}

// safetyKey validates the stepResM of a /v1/safety request against the
// grid's bounds and returns its canonical memo key (stepRes after the 1 m
// default). A resolution whose voltage raster would exceed
// postproc.MaxVoltagePoints is refused here, before any solve.
func safetyKey(bounds geom.AABB, stepRes float64) (postKey, error) {
	if stepRes < 0 {
		return postKey{}, fmt.Errorf("stepResM %g must be non-negative", stepRes)
	}
	p, err := postproc.PlanVoltageRaster(bounds, stepRes, postproc.MaxVoltagePoints)
	if err != nil {
		return postKey{}, err
	}
	return postKey{kind: "safety", stepRes: p.StepRes}, nil
}

// handleSafety checks touch/step/mesh voltages against the IEEE Std 80
// limits. Like handleRaster it memoizes the unit-GPR voltage field (the
// surface raster plus each sample's conductor-proximity class) on the
// scenario's LRU entry: a repeat at any GPR and criteria is an O(points)
// reduction without an admission slot, a miss holds a slot for the sweep.
func (s *Server) handleSafety(w http.ResponseWriter, r *http.Request) {
	s.metrics.SafetyRequests.Add(1)
	var req SafetyRequest
	if herr := decode(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	crit, err := req.Criteria.criteria()
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	b, err := req.Scenario.build(s.cfg.Workers)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	pk, err := safetyKey(b.grid.Bounds(), req.StepResM)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	ctx, cancel, herr := s.requestCtx(r, req.TimeoutMs)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	defer cancel()
	field, tier, how, herr := s.postField(ctx, b, pk, func(res *earthing.Result) (memoField, error) {
		return postproc.VoltageFieldCtx(ctx, res.Assembler(), res.Mesh, res.Sigma, 1, pk.stepRes,
			postproc.MaxVoltagePoints, postproc.SurfaceOptions{Workers: b.cfg.BEM.Workers, Schedule: b.cfg.BEM.Schedule})
	})
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	volt := field.(*postproc.VoltageField).Voltages(b.gpr, b.gpr)
	verdict, err := crit.Check(volt.MaxStep, volt.MaxTouch, volt.MaxMesh)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	w.Header().Set("X-Groundd-Post", how)
	s.writeJSON(w, tier, SafetyResponse{
		Key: b.key, GPR: b.gpr,
		StepV: volt.MaxStep, TouchV: volt.MaxTouch, MeshV: volt.MaxMesh,
		StepLimitV: verdict.StepLimit, TouchLimitV: verdict.TouchLimit,
		StepOK: verdict.StepOK, TouchOK: verdict.TouchOK, MeshOK: verdict.MeshOK,
		Safe: verdict.Safe(),
	})
}

// --- /v1/stats ---

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errdrop encode-to-client failure means the client is gone; nothing to do
	json.NewEncoder(w).Encode(s.snapshot())
}
