package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"ssdtrain/internal/exp"
)

// histBuckets is the latency histogram resolution: bucket i holds
// observations in [2^i, 2^(i+1)) microseconds, so 32 buckets span 1 µs
// to ~71 minutes — wider than any simulation the service runs.
const histBuckets = 32

// histogram is a lock-free log2 latency histogram.
type histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for us > 1 && i < histBuckets-1 {
		us >>= 1
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// quantile returns the upper bound (in µs) of the bucket holding the
// q-th observation — an upward-biased estimate within one power of two,
// plenty for spotting an order-of-magnitude latency regression.
func (h *histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			// Bucket i holds observations in [2^i, 2^(i+1)) µs.
			return int64(1) << (i + 1)
		}
	}
	return int64(1) << histBuckets
}

// EndpointRegistry holds per-endpoint request counters and latency
// histograms. The service keeps one, and so does the cluster router in
// front of it, so both render one EndpointMetrics shape.
type EndpointRegistry struct {
	mu        sync.Mutex
	endpoints map[string]*EndpointStats
}

// NewEndpointRegistry returns a registry with the named endpoints
// registered up front, so they report zero counts before any traffic.
func NewEndpointRegistry(names ...string) *EndpointRegistry {
	r := &EndpointRegistry{endpoints: make(map[string]*EndpointStats, len(names))}
	for _, name := range names {
		r.endpoints[name] = &EndpointStats{}
	}
	return r
}

// Endpoint returns the named endpoint's entry; unknown names get one
// lazily so instrumenting a new route cannot panic the server.
func (r *EndpointRegistry) Endpoint(name string) *EndpointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.endpoints[name]
	if !ok {
		e = &EndpointStats{}
		r.endpoints[name] = e
	}
	return e
}

// Snapshot returns every endpoint's metrics by name.
func (r *EndpointRegistry) Snapshot() map[string]EndpointMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]EndpointMetrics, len(r.endpoints))
	for name, e := range r.endpoints {
		m[name] = e.metrics()
	}
	return m
}

// EndpointStats accumulates one endpoint's request counters and latency.
type EndpointStats struct {
	count     atomic.Int64
	status2xx atomic.Int64
	status4xx atomic.Int64
	status5xx atomic.Int64
	hist      histogram
}

// Observe records one answered request.
func (e *EndpointStats) Observe(status int, d time.Duration) {
	e.count.Add(1)
	switch {
	case status >= 500:
		e.status5xx.Add(1)
	case status >= 400:
		e.status4xx.Add(1)
	default:
		e.status2xx.Add(1)
	}
	e.hist.observe(d)
}

// stats is the server's metrics registry.
type stats struct {
	start     time.Time
	endpoints *EndpointRegistry
	// coalesced counts requests that shared another caller's in-flight
	// simulation (singleflight dedup).
	coalesced atomic.Int64
	// rejected counts 429 backpressure responses (saturation: slots busy
	// and the wait queue full).
	rejected atomic.Int64
	// rejectedDeadline counts 503 responses whose request deadline
	// expired while queued or simulating — brownout, not backpressure.
	rejectedDeadline atomic.Int64
	// staleServed counts responses served from the rendered-body cache
	// past the staleness threshold and labeled as such.
	staleServed atomic.Int64
	// peerFilled/peerFillMisses count local cache misses answered (or
	// not) from a peer replica's cache; cachefillHits/cachefillMisses
	// count the mirror image — /v1/cachefill lookups this replica
	// answered for its peers.
	peerFilled      atomic.Int64
	peerFillMisses  atomic.Int64
	cachefillHits   atomic.Int64
	cachefillMisses atomic.Int64
	// flushes/batched/maxBatch describe the batcher: batches run,
	// requests that ran in them, and the largest batch.
	flushes  atomic.Int64
	batched  atomic.Int64
	maxBatch atomic.Int64
}

func newStats(start time.Time, endpoints ...string) *stats {
	return &stats{start: start, endpoints: NewEndpointRegistry(endpoints...)}
}

func (s *stats) recordBatch(n int) {
	s.flushes.Add(1)
	s.batched.Add(int64(n))
	for {
		cur := s.maxBatch.Load()
		if int64(n) <= cur || s.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// EndpointMetrics is one endpoint's snapshot in a /metrics response.
type EndpointMetrics struct {
	Count     int64 `json:"count"`
	Status2xx int64 `json:"status_2xx"`
	Status4xx int64 `json:"status_4xx"`
	Status5xx int64 `json:"status_5xx"`
	MeanUs    int64 `json:"mean_us"`
	P50Us     int64 `json:"p50_us"`
	P90Us     int64 `json:"p90_us"`
	P99Us     int64 `json:"p99_us"`
}

// CacheMetrics is one cache's snapshot in a /metrics response.
type CacheMetrics struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Len       int     `json:"len"`
	HitRate   float64 `json:"hit_rate"`
}

func cacheMetrics(hits, misses, evictions int64, length int) CacheMetrics {
	m := CacheMetrics{Hits: hits, Misses: misses, Evictions: evictions, Len: length}
	if total := hits + misses; total > 0 {
		m.HitRate = float64(hits) / float64(total)
	}
	return m
}

// BatchMetrics describes the /v1/plan batcher. Flushes counts the
// batches run; the wire name predates group commit.
type BatchMetrics struct {
	Flushes         int64 `json:"flushes"`
	BatchedRequests int64 `json:"batched_requests"`
	MaxBatch        int64 `json:"max_batch"`
}

// SpanMetrics snapshots the process-wide flight-recorder totals
// (spans.Totals): traced runs snapshotted, spans delivered, and spans
// lost to ring overwrites.
type SpanMetrics struct {
	Snapshots int64 `json:"snapshots"`
	Spans     int64 `json:"spans"`
	Dropped   int64 `json:"dropped"`
}

// PeerFillMetrics describes the peer cache-fill traffic of a clustered
// replica, both directions: Filled/Misses are this replica's own cold
// misses it tried to answer from peers, ServedHits/ServedMisses are the
// /v1/cachefill lookups it answered for them.
type PeerFillMetrics struct {
	Filled       int64 `json:"filled"`
	Misses       int64 `json:"misses"`
	ServedHits   int64 `json:"served_hits"`
	ServedMisses int64 `json:"served_misses"`
}

// ReplicaHealthMetrics is one replica's registry snapshot in a router's
// /metrics response.
type ReplicaHealthMetrics struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Probes counts active health checks sent; Failures counts failed
	// probes and failed forwards (the passive signal).
	Probes       int64 `json:"probes"`
	Failures     int64 `json:"failures"`
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
}

// RouterMetrics is the cluster router's /metrics snapshot: the retry,
// hedging, stale-serve and replica-health counters of the consistent-hash
// front. It lives here (not in internal/cluster) so the Prometheus
// rendering shares one file with the replica metrics — the operator's
// view of backpressure vs brownout spans both layers.
type RouterMetrics struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
	// Requests is every routed request; Attempts counts the upstream
	// tries made for them (retries and hedges included).
	Requests int64 `json:"requests"`
	Attempts int64 `json:"attempts"`
	// Retries are sequential re-tries after a failed attempt; Hedges are
	// speculative parallel attempts fired at the next ring successor when
	// the primary ran past the hedge delay, and HedgeWins counts hedges
	// whose answer arrived first.
	Retries   int64 `json:"retries"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// RetryBudgetExhausted counts retries/hedges NOT fired because the
	// retry budget was empty — the brownout-amplification guard working.
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
	// StaleServed counts requests answered from the router's last-good
	// body cache (labeled with the staleness headers) because no replica
	// could produce a fresh render; StaleMisses counts total failures
	// with no last-good body to fall back to (the only path to a 5xx).
	StaleServed int64 `json:"stale_served"`
	StaleMisses int64 `json:"stale_misses"`
	// RingReplicas/RingRebuilds describe the consistent-hash ring: how
	// many healthy replicas it currently spans and how many times health
	// transitions rebuilt it.
	RingReplicas int                    `json:"ring_replicas"`
	RingRebuilds int64                  `json:"ring_rebuilds"`
	Replicas     []ReplicaHealthMetrics `json:"replicas"`
}

// FleetProfilerMetrics snapshots the shared fleet profiler.
type FleetProfilerMetrics struct {
	Runs        int64                `json:"runs"`
	Coalesced   int64                `json:"coalesced"`
	Cached      int                  `json:"cached"`
	CacheHits   int64                `json:"cache_hits"`
	CacheMisses int64                `json:"cache_misses"`
	Pool        exp.SessionPoolStats `json:"pool"`
}

// Metrics is the /metrics response: every cache, pool, dedup and latency
// counter the serving layers expose, so "the arenas are shared and the
// simulations are deduplicated" is observable per process rather than
// asserted in documentation.
type Metrics struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
	// CoalescedRequests counts requests answered by another request's
	// in-flight simulation (singleflight dedup).
	CoalescedRequests int64 `json:"coalesced_requests"`
	// RejectedRequests counts 429 backpressure responses (saturation:
	// worker slots busy and the wait queue full).
	RejectedRequests int64 `json:"rejected_requests"`
	// RejectedDeadline counts 503 deadline-expiry responses — the
	// server running out of time budget (brownout), kept separate from
	// saturation so operators can tell the two apart.
	RejectedDeadline int64 `json:"rejected_deadline"`
	// StaleServed counts responses served from the rendered-body cache
	// past Options.StaleAfter and labeled with the staleness headers.
	StaleServed int64 `json:"stale_served"`
	// PeerFill is the replica's peer cache-fill traffic (zero-valued
	// when the server runs without peers).
	PeerFill PeerFillMetrics `json:"peer_fill"`
	Batch    BatchMetrics    `json:"batch"`
	// PlanCache is the process-wide compiled-plan cache.
	PlanCache CacheMetrics `json:"plan_cache"`
	// ResultCache holds rendered /v1/plan bodies.
	ResultCache CacheMetrics `json:"result_cache"`
	// FleetCache holds rendered /v1/fleet bodies.
	FleetCache CacheMetrics `json:"fleet_cache"`
	// Sessions is the server's execution-arena pool.
	Sessions exp.SessionPoolStats `json:"sessions"`
	// FleetProfiler is the shared cross-request fleet profiler.
	FleetProfiler FleetProfilerMetrics `json:"fleet_profiler"`
	// Spans aggregates flight-recorder activity across every arena.
	Spans SpanMetrics `json:"spans"`
	// SteadyState aggregates steady-state fast-path outcomes across every
	// measurement: converged runs, steps synthesized instead of
	// simulated, and full-simulation fallbacks by reason.
	SteadyState exp.SteadyStats `json:"steady_state"`
}

func (e *EndpointStats) metrics() EndpointMetrics {
	m := EndpointMetrics{
		Count:     e.count.Load(),
		Status2xx: e.status2xx.Load(),
		Status4xx: e.status4xx.Load(),
		Status5xx: e.status5xx.Load(),
		P50Us:     e.hist.quantile(0.50),
		P90Us:     e.hist.quantile(0.90),
		P99Us:     e.hist.quantile(0.99),
	}
	if n := e.hist.count.Load(); n > 0 {
		m.MeanUs = e.hist.sumNs.Load() / n / 1e3
	}
	return m
}
