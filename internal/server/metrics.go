package server

import (
	"expvar"
	"sync/atomic"
)

// Metrics holds the server's observability counters. All fields are updated
// atomically; a consistent snapshot is not needed (each counter is
// independently meaningful), so reads are plain atomic loads.
//
// The struct is per-Server rather than package-global expvar variables so
// tests can spin up many servers without tripping expvar's duplicate-name
// panic; cmd/groundd publishes one server's Metrics into expvar at startup
// (see PublishExpvar).
type Metrics struct {
	// Request counters by endpoint.
	SolveRequests    atomic.Int64
	SweepRequests    atomic.Int64
	RasterRequests   atomic.Int64
	SafetyRequests   atomic.Int64
	OptimizeRequests atomic.Int64

	// Design-loop accounting: OptimizeCandidates is the cumulative count of
	// unique candidate layouts solved by /v1/optimize searches;
	// OptimizeNanos the wall time spent inside the search engine.
	OptimizeCandidates atomic.Int64
	OptimizeNanos      atomic.Int64

	// Cache accounting. Assemblies counts full pipeline runs (matrix
	// generation + factorization); on a pure cache hit it does not move —
	// the acceptance check for "cache hit performs no assembly". CacheHits
	// and CacheMisses are LRU-level; the tiers below it count separately.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	Assemblies  atomic.Int64

	// Post-processing memo accounting for /v1/raster and /v1/safety.
	// PostMemoHits counts requests answered from a unit-GPR field memoized
	// on their LRU entry (each also counts as a CacheHit); PostMemoMisses
	// those that ran the field sweep.
	PostMemoHits   atomic.Int64
	PostMemoMisses atomic.Int64

	// Degradation-ladder accounting. StoreHits counts scenarios rehydrated
	// from the durable store (no assembly, no solve); PeerHits those served
	// by the ring owner; PeerFallbacks scenarios that wanted a peer but
	// ended in a local solve (dead, slow, quarantined or poisoned owner);
	// PeerPoisoned the subset whose response failed checksum verification
	// and tripped the owner's breaker.
	StoreHits     atomic.Int64
	PeerHits      atomic.Int64
	PeerFallbacks atomic.Int64
	PeerPoisoned  atomic.Int64

	// Load-shedding outcomes.
	RejectedQueueFull atomic.Int64 // 429: admission queue at capacity
	DeadlineExceeded  atomic.Int64 // 504: deadline elapsed before/while solving
	ClientCancelled   atomic.Int64 // 499: client went away

	// Resilience counters. WorkerPanics counts panics contained inside the
	// parallel compute loops and surfaced as request errors; HandlerPanics
	// counts panics recovered at the HTTP handler boundary (the process
	// stays up either way). HealthFailures counts solves rejected by the
	// numerical health checks instead of serving garbage.
	WorkerPanics   atomic.Int64
	HandlerPanics  atomic.Int64
	HealthFailures atomic.Int64

	// QueueDepth is the current number of requests admitted but not yet
	// holding a worker slot; BusyWorkers the number of slots in use.
	QueueDepth  atomic.Int64
	BusyWorkers atomic.Int64

	// Per-stage wall time accumulators, nanoseconds (summed across
	// requests; divide by Assemblies for mean cost per cold solve).
	AssembleNanos atomic.Int64 // matrix generation + solve (cold path)
	PostNanos     atomic.Int64 // raster and voltage field sweeps (memo hits add none)
}

// Snapshot is a plain-value copy of the counters for JSON serialization.
type Snapshot struct {
	SolveRequests      int64 `json:"solveRequests"`
	SweepRequests      int64 `json:"sweepRequests"`
	RasterRequests     int64 `json:"rasterRequests"`
	SafetyRequests     int64 `json:"safetyRequests"`
	OptimizeRequests   int64 `json:"optimizeRequests"`
	OptimizeCandidates int64 `json:"optimizeCandidates"`
	OptimizeNanos      int64 `json:"optimizeNanos"`
	CacheHits          int64 `json:"cacheHits"`
	CacheMisses        int64 `json:"cacheMisses"`
	CacheEntries       int   `json:"cacheEntries"`
	CacheBytes         int64 `json:"cacheBytes"`
	Assemblies         int64 `json:"assemblies"`
	PostMemoHits       int64 `json:"postMemoHits"`
	PostMemoMisses     int64 `json:"postMemoMisses"`
	StoreHits          int64 `json:"storeHits"`
	StoreRecords       int64 `json:"storeRecords"`
	StoreSkipped       int64 `json:"storeSkippedRecords"`
	StoreDropped       int64 `json:"storeDroppedWrites"`
	StoreWriteErrors   int64 `json:"storeWriteErrors"`
	PeerHits           int64 `json:"peerHits"`
	PeerFallbacks      int64 `json:"peerFallbacks"`
	PeerPoisoned       int64 `json:"peerPoisoned"`
	BreakerOpen        int64 `json:"breakerOpen"`
	RejectedQueueFull  int64 `json:"rejectedQueueFull"`
	DeadlineExceeded   int64 `json:"deadlineExceeded"`
	ClientCancelled    int64 `json:"clientCancelled"`
	WorkerPanics       int64 `json:"workerPanics"`
	HandlerPanics      int64 `json:"handlerPanics"`
	HealthFailures     int64 `json:"healthFailures"`
	QueueDepth         int64 `json:"queueDepth"`
	BusyWorkers        int64 `json:"busyWorkers"`
	AssembleNanos      int64 `json:"assembleNanos"`
	PostNanos          int64 `json:"postNanos"`
}

// snapshot captures the counters plus the cache size.
func (m *Metrics) snapshot(cacheEntries int) Snapshot {
	return Snapshot{
		SolveRequests:      m.SolveRequests.Load(),
		SweepRequests:      m.SweepRequests.Load(),
		RasterRequests:     m.RasterRequests.Load(),
		SafetyRequests:     m.SafetyRequests.Load(),
		OptimizeRequests:   m.OptimizeRequests.Load(),
		OptimizeCandidates: m.OptimizeCandidates.Load(),
		OptimizeNanos:      m.OptimizeNanos.Load(),
		CacheHits:          m.CacheHits.Load(),
		CacheMisses:        m.CacheMisses.Load(),
		CacheEntries:       cacheEntries,
		Assemblies:         m.Assemblies.Load(),
		PostMemoHits:       m.PostMemoHits.Load(),
		PostMemoMisses:     m.PostMemoMisses.Load(),
		StoreHits:          m.StoreHits.Load(),
		PeerHits:           m.PeerHits.Load(),
		PeerFallbacks:      m.PeerFallbacks.Load(),
		PeerPoisoned:       m.PeerPoisoned.Load(),
		RejectedQueueFull:  m.RejectedQueueFull.Load(),
		DeadlineExceeded:   m.DeadlineExceeded.Load(),
		ClientCancelled:    m.ClientCancelled.Load(),
		WorkerPanics:       m.WorkerPanics.Load(),
		HandlerPanics:      m.HandlerPanics.Load(),
		HealthFailures:     m.HealthFailures.Load(),
		QueueDepth:         m.QueueDepth.Load(),
		BusyWorkers:        m.BusyWorkers.Load(),
		AssembleNanos:      m.AssembleNanos.Load(),
		PostNanos:          m.PostNanos.Load(),
	}
}

// snapshot assembles the full observability view: the atomic counters plus
// live gauges from the cache, the durable store (when configured) and the
// fleet's circuit breakers (when clustered).
func (s *Server) snapshot() Snapshot {
	snap := s.metrics.snapshot(s.cache.len())
	snap.CacheBytes = s.cache.bytes()
	if s.store != nil {
		st := s.store.Stats()
		snap.StoreRecords = int64(st.Records)
		snap.StoreSkipped = st.SkippedRecords
		snap.StoreDropped = st.DroppedWrites
		snap.StoreWriteErrors = st.WriteErrors
	}
	if s.fleet != nil {
		snap.BreakerOpen = s.fleet.openBreakers()
	}
	return snap
}

// PublishExpvar exposes the server's counters under the "groundd" expvar
// name (visible at /debug/vars) as the JSON object /v1/stats serves: both
// render Server.snapshot, so the two outputs share one list of keys. Call at
// most once per process: expvar panics on duplicate names, which is why the
// counters live on the Server rather than in package-level expvar variables.
func (s *Server) PublishExpvar() {
	expvar.Publish("groundd", expvar.Func(func() any { return s.snapshot() }))
}
