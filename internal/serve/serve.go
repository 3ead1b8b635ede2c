// Package serve exposes the experiment harness as a long-lived
// planning-as-a-service process: an HTTP/JSON API answering single-run
// what-ifs (/v1/plan), cheap-knob sweeps streamed as NDJSON (/v1/sweep)
// and fleet-scale scheduling questions (/v1/fleet), plus a /metrics
// snapshot of every cache and pool behind them.
//
// The server is the first subsystem where many users share one process,
// and it is built directly on the reuse layers of the harness: rendered
// results sit in an LRU keyed by the normalized config, concurrent
// identical requests coalesce into one simulation through a
// singleflight, every simulation runs on a recycled execution arena
// (exp.SessionPool → exp.Session, keyed per plan shape), and fleet
// what-ifs share one profiler cache across all requests. Admission is
// bounded: a fixed worker count plus a bounded wait queue, with 429 +
// Retry-After beyond that. Responses are deterministic — a served body
// is byte-identical to rendering a fresh Plan.Execute of the same
// config, whichever cache, flight or arena actually produced it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/fleet"
	"ssdtrain/internal/lru"
	"ssdtrain/internal/spans"
)

// Options configures a Server. The zero value is a working production
// default.
type Options struct {
	// Workers bounds concurrently executing requests (0 = GOMAXPROCS).
	Workers int
	// Queue bounds requests waiting for a worker slot; beyond it the
	// server answers 429 (0 = DefaultQueue, negative = no queue).
	Queue int
	// CacheCapacity sizes the rendered-result LRU (0 = DefaultCacheCapacity).
	CacheCapacity int
	// MaxIdleSessions bounds the arena pool (0 = exp.DefaultMaxIdleSessions).
	MaxIdleSessions int
	// FleetCacheCapacity sizes the shared fleet profiler's cache
	// (0 = fleet.DefaultCacheCapacity).
	FleetCacheCapacity int
	// RequestTimeout bounds each request end to end: the deadline is set
	// on the request context before the handler runs, so it covers queue
	// waits for a worker slot and the simulation itself. An expired
	// deadline answers 503 (0 = DefaultRequestTimeout, negative = none).
	RequestTimeout time.Duration
	// ReplicaID names this replica within a sharded cluster; it is
	// echoed on responses (X-SSDTrain-Replica) so routers and drills can
	// attribute a body to the process that served it.
	ReplicaID string
	// Peers lists the base URLs of the other replicas in the cluster.
	// With peers configured, a cold /v1/plan miss first asks their
	// /v1/cachefill endpoints for an already-rendered body (bounded by
	// PeerFillTimeout, inside the request's singleflight) before paying a
	// simulation — the survivors' caches warm a rehashed or restarted
	// shard instead of every key re-simulating from scratch.
	Peers []string
	// PeerFillTimeout bounds one peer cache-fill fan-out end to end
	// (0 = DefaultPeerFillTimeout, negative = disable peer fill).
	PeerFillTimeout time.Duration
	// PeerClient issues the cache-fill requests (nil = a default client;
	// tests inject in-memory transports).
	PeerClient *http.Client
	// StaleAfter labels responses whose cached body is older than this
	// with the staleness headers (X-SSDTrain-Stale, X-SSDTrain-Stale-For)
	// and counts them on /metrics. Peer-filled entries keep the render
	// stamp of the replica that simulated them, so age survives the
	// copy. 0 disables labeling: bodies are pure functions of the config,
	// so age is operational information, never a correctness risk.
	StaleAfter time.Duration
}

// Defaults for Options' zero values.
const (
	DefaultQueue           = 64
	DefaultCacheCapacity   = 1024
	DefaultRequestTimeout  = 2 * time.Minute
	DefaultPeerFillTimeout = 250 * time.Millisecond
	// defaultFleetBodies bounds the rendered fleet-response LRU; fleet
	// requests are few and bodies small, so a handful suffices.
	defaultFleetBodies = 64
)

// Cluster wire headers: the staleness label on cache-served bodies, the
// render stamp a cache-fill answer carries (unix nanoseconds), and the
// replica attribution echo.
const (
	HeaderStale      = "X-SSDTrain-Stale"
	HeaderStaleFor   = "X-SSDTrain-Stale-For"
	HeaderRenderedAt = "X-SSDTrain-Rendered-At"
	HeaderReplica    = "X-SSDTrain-Replica"
)

// stamped pairs a rendered body with its render time — the value the
// caches, flights and peer fills move around, so staleness labeling can
// measure age from the simulation that produced a body rather than the
// hop that delivered it.
type stamped struct {
	body []byte
	at   time.Time
}

// Server is a concurrent what-if planning service.
type Server struct {
	opts     Options
	stats    *stats
	results  *lru.Cache[exp.RunConfig, []byte]
	flight   lru.Singleflight[exp.RunConfig, stamped]
	fleetRes *lru.Cache[string, []byte]
	fleetFl  lru.Singleflight[string, stamped]
	sessions *exp.SessionPool
	// exec runs one simulation on a pooled arena: sessions.Execute,
	// unless a test swaps it before the server starts.
	exec     func(exp.RunConfig) (*exp.RunResult, error)
	limiter  *limiter
	profiler *fleet.Profiler
	peers    *peerSet
	mux      *http.ServeMux
}

// New builds a Server.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case opts.Queue == 0:
		opts.Queue = DefaultQueue
	case opts.Queue < 0:
		opts.Queue = 0
	}
	if opts.CacheCapacity <= 0 {
		opts.CacheCapacity = DefaultCacheCapacity
	}
	switch {
	case opts.RequestTimeout == 0:
		opts.RequestTimeout = DefaultRequestTimeout
	case opts.RequestTimeout < 0:
		opts.RequestTimeout = 0
	}
	switch {
	case opts.PeerFillTimeout == 0:
		opts.PeerFillTimeout = DefaultPeerFillTimeout
	case opts.PeerFillTimeout < 0:
		opts.PeerFillTimeout = 0
	}
	s := &Server{
		opts:     opts,
		stats:    newStats(time.Now(), "plan", "sweep", "fleet", "trace", "cachefill", "metrics"),
		results:  lru.New[exp.RunConfig, []byte](opts.CacheCapacity),
		fleetRes: lru.New[string, []byte](defaultFleetBodies),
		sessions: exp.NewSessionPool(opts.MaxIdleSessions),
		limiter:  newLimiter(opts.Workers, opts.Queue),
		profiler: fleet.NewProfiler(opts.FleetCacheCapacity),
		mux:      http.NewServeMux(),
	}
	if len(opts.Peers) > 0 && opts.PeerFillTimeout > 0 {
		s.peers = newPeerSet(opts.Peers, opts.PeerClient, opts.PeerFillTimeout, s.stats)
	}
	s.exec = s.sessions.Execute
	s.mux.HandleFunc("/v1/plan", s.instrument("plan", s.handlePlan))
	s.mux.HandleFunc("/v1/sweep", s.instrument("sweep", s.handleSweep))
	s.mux.HandleFunc("/v1/fleet", s.instrument("fleet", s.handleFleet))
	s.mux.HandleFunc("/v1/trace", s.instrument("trace", s.handleTrace))
	s.mux.HandleFunc("/v1/cachefill", s.instrument("cachefill", s.handleCachefill))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// statusRecorder captures the response status for instrumentation while
// passing streaming flushes through.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.stats.endpoints.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.opts.RequestTimeout > 0 {
			// The deadline rides the request context into every slot wait
			// and singleflight join below the handler.
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if s.opts.ReplicaID != "" {
			w.Header().Set(HeaderReplica, s.opts.ReplicaID)
		}
		h(rec, r)
		ep.Observe(rec.status, time.Since(start))
	}
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	blob, _ := json.Marshal(errorBody{Error: err.Error()})
	w.Write(append(blob, '\n'))
}

// maxBodyBytes bounds request bodies; planning requests are small.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}

// decodePlanBody strictly decodes a body that holds plan questions. A flat
// body, with the model and knobs at the top level, fails on its first
// field, and the error names the spec form.
func decodePlanBody(w http.ResponseWriter, r *http.Request, into any) error {
	if err := decodeBody(w, r, into); err != nil {
		return fmt.Errorf("%w; %s", err, specForm)
	}
	return nil
}

// errSaturated reports backpressure: the worker slots are busy and the
// wait queue is full. Handlers translate it to 429 + Retry-After.
var errSaturated = errors.New("serve: saturated, retry later")

// errDeadline is the 503 body for a request whose Options.RequestTimeout
// deadline expired while it was queued or simulating.
var errDeadline = errors.New("serve: request deadline exceeded")

// maxRetryAfterSeconds caps the load-derived Retry-After base; with the
// jitter the header never exceeds twice this.
const maxRetryAfterSeconds = 30

// retryAfterSeconds derives the Retry-After hint from current load
// instead of a constant: one second of hinted delay per worker-count of
// queued waiters ahead of the caller (the time a full queue drain takes
// if every simulation ran about a second), clamped, then jittered into
// [base, 2*base) so a burst of rejected clients doesn't come back in
// lockstep and re-saturate the queue on the same tick.
func (s *Server) retryAfterSeconds() int {
	base := 1 + s.limiter.waiting()/s.opts.Workers
	if base > maxRetryAfterSeconds {
		base = maxRetryAfterSeconds
	}
	return base + rand.IntN(base)
}

// writeRunError maps a simulation-path error to its response: deadline
// expiry is the server running out of time budget (503, retryable, with
// the same load-derived Retry-After as saturation), not a property of
// the config (422). rejected_deadline counts the 503s so operators can
// tell brownout from the 429 backpressure counter.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.stats.rejectedDeadline.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, errDeadline)
		return
	}
	writeError(w, http.StatusUnprocessableEntity, err)
}

// writeBackpressure answers 429 + Retry-After; rejected_requests counts
// exactly these responses, wherever the saturation was detected.
func (s *Server) writeBackpressure(w http.ResponseWriter) {
	s.stats.rejected.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests, errSaturated)
}

// runPooled is the one path from a request to an execution arena:
// every pooled simulation (a /v1/plan miss, a /v1/sweep point, a
// /v1/trace run) claims a worker slot under the request's context, runs
// on the shared session pool and releases the slot, so no slot is held
// across client-paced response writes. A panic in the simulation stack
// becomes an error, so the request and its flight joiners get a 422
// instead of a dropped connection; a panicked Execute never releases
// its arena, so a possibly-corrupted session is dropped rather than
// recycled.
func (s *Server) runPooled(ctx context.Context, cfg exp.RunConfig) (res *exp.RunResult, err error) {
	if err := s.acquireSlot(ctx); err != nil {
		return nil, err
	}
	defer s.limiter.release()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: simulation panicked: %v", r)
		}
	}()
	return s.exec(cfg)
}

// RenderPlanResult renders a measurement result to the canonical
// /v1/plan body (newline-terminated JSON). The handler, the sweep
// stream, the result cache and the byte-identity tests all go through
// this one function, so "served == freshly executed" is checkable with
// bytes.Equal.
func RenderPlanResult(res *exp.RunResult) []byte {
	blob, err := json.Marshal(NewPlanResponse(res))
	if err != nil {
		// The response type marshals by construction; any failure here is
		// a programming error, not an input condition.
		panic(fmt.Sprintf("serve: rendering plan response: %v", err))
	}
	return append(blob, '\n')
}

// acquireSlot claims a worker slot, mapping failure to the caller's
// own context error (the client went away — not saturation) or to
// errSaturated (slots busy, queue full).
func (s *Server) acquireSlot(ctx context.Context) error {
	if s.limiter.acquire(ctx) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return errSaturated
}

// ownerDied reports a shared flight outcome that reflects the OWNER's
// request dying (its context canceled or timed out), not a property of
// the work itself.
func ownerDied(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cachedBody is the one serving discipline both /v1/plan and /v1/fleet
// follow: answer from the rendered-body cache, else join a singleflight
// whose owner alone does the work (run must claim any worker slot it
// needs and Put the rendered body). Cache reads and flight joins hold
// no worker slot, so a saturated server still answers everything it
// already knows; a joiner whose owner's client died mid-wait retries so
// a surviving caller becomes the new owner; and only successfully
// shared work counts as dedup — a joiner inheriting the owner's 429 or
// simulation error is not coalescing the selfcheck gate should credit.
func cachedBody[K comparable](ctx context.Context, s *Server, cache *lru.Cache[K, []byte], fl *lru.Singleflight[K, stamped], key K, run func() (stamped, error)) ([]byte, time.Time, error) {
	for {
		if body, at, ok := cache.GetStamped(key); ok {
			return body, at, nil
		}
		st, err, shared := fl.Do(key, func() (stamped, error) {
			if b, at, ok := cache.GetQuietStamped(key); ok {
				return stamped{body: b, at: at}, nil
			}
			return run()
		})
		if shared && err != nil && ownerDied(err) && ctx.Err() == nil {
			continue
		}
		if shared && err == nil {
			s.stats.coalesced.Add(1)
		}
		return st.body, st.at, err
	}
}

// planBody answers one normalized config through cachedBody over a
// pooled execution. Only for the duration of the simulation is a worker
// slot held, which is also why no caller can deadlock holding a slot
// another flight's owner is waiting for.
func (s *Server) planBody(ctx context.Context, cfg exp.RunConfig) ([]byte, time.Time, error) {
	return cachedBody(ctx, s, s.results, &s.flight, cfg, func() (stamped, error) {
		// Peer fill first: a clustered replica asks its peers' caches
		// before paying a simulation. The lookup is cheap (no worker slot),
		// runs inside this flight (so concurrent identical misses fan out
		// to the peers once), and a filled body keeps the render stamp of
		// the replica that simulated it.
		if s.peers != nil {
			if body, at, ok := s.peers.fill(ctx, cfg); ok {
				s.results.PutStamped(cfg, body, at)
				return stamped{body: body, at: at}, nil
			}
		}
		res, err := s.runPooled(ctx, cfg)
		if err != nil {
			return stamped{}, err
		}
		b := RenderPlanResult(res)
		at := time.Now()
		s.results.PutStamped(cfg, b, at)
		return stamped{body: b, at: at}, nil
	})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	var req PlanRequest
	if err := decodePlanBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := req.RunConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, at, err := s.planBody(r.Context(), cfg)
	if errors.Is(err, errSaturated) {
		s.writeBackpressure(w)
		return
	}
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	s.writeStamped(w, body, at)
}

// writeStamped writes a rendered JSON body, labeling it with the
// staleness headers (and counting it on /metrics) when its render stamp
// is older than Options.StaleAfter. Bodies are pure functions of the
// config, so the label is operational information for routers and
// operators — never a correctness downgrade.
func (s *Server) writeStamped(w http.ResponseWriter, body []byte, at time.Time) {
	if s.opts.StaleAfter > 0 && !at.IsZero() {
		if age := time.Since(at); age > s.opts.StaleAfter {
			w.Header().Set(HeaderStale, "true")
			w.Header().Set(HeaderStaleFor, age.Round(time.Millisecond).String())
			s.stats.staleServed.Add(1)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	var req SweepRequest
	if err := decodePlanBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfgs, err := req.configs()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Each point claims a worker slot only while simulating (inside its
	// flight), so the sweep holds nothing while writing to a slow client
	// and saturation surfaces per point, not as a held-slot outage.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for _, cfg := range cfgs {
		if r.Context().Err() != nil {
			return // deadline or client gone: remaining points are unwanted
		}
		body, _, err := s.planBody(r.Context(), cfg)
		if err != nil {
			// The stream is already committed at 200; a failing point
			// reports inline and the sweep continues, so one infeasible
			// corner doesn't cost the rest of the grid.
			blob, _ := json.Marshal(errorBody{Error: err.Error()})
			body = append(blob, '\n')
		}
		if _, err := w.Write(body); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	var req FleetRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	norm, key, err := req.normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, at, err := cachedBody(r.Context(), s, s.fleetRes, &s.fleetFl, key, func() (stamped, error) {
		if err := s.acquireSlot(r.Context()); err != nil {
			return stamped{}, err
		}
		defer s.limiter.release()
		resp, err := s.runFleetSafe(norm)
		if err != nil {
			return stamped{}, err
		}
		blob, err := json.Marshal(resp)
		if err != nil {
			return stamped{}, err
		}
		blob = append(blob, '\n')
		renderedAt := time.Now()
		s.fleetRes.PutStamped(key, blob, renderedAt)
		return stamped{body: blob, at: renderedAt}, nil
	})
	if errors.Is(err, errSaturated) {
		s.writeBackpressure(w)
		return
	}
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	s.writeStamped(w, body, at)
}

// handleTrace answers POST /v1/trace: the same planning question as
// /v1/plan, executed with the flight recorder on, streamed back as Chrome
// trace-event JSON (load it in Perfetto / chrome://tracing). Trace bodies
// are not cached — they are large, rarely repeated, and the traced run is
// byte-identical to the untraced one, so caching them would only evict
// the plan bodies the cache exists for. The pooled arena is still shared:
// a traced request reuses (and re-warms) the same sessions /v1/plan does.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	var req PlanRequest
	if err := decodePlanBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := req.RunConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg.Trace = true
	res, err := s.runPooled(r.Context(), cfg)
	if errors.Is(err, errSaturated) {
		s.writeBackpressure(w)
		return
	}
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.Trace.ChromeJSON())
}

// WantsPrometheus reports whether the request negotiated the Prometheus
// text exposition instead of the default JSON body. Anything naming
// text/plain or OpenMetrics in Accept opts in; everything else (including
// no Accept at all) keeps the original JSON byte-identical.
func WantsPrometheus(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: GET only"))
		return
	}
	m := s.Metrics()
	if WantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(m.Prometheus())
		return
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(blob, '\n'))
}

// Metrics snapshots every counter the server exposes on /metrics.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		UptimeSeconds:     time.Since(s.stats.start).Seconds(),
		Endpoints:         s.stats.endpoints.Snapshot(),
		CoalescedRequests: s.stats.coalesced.Load(),
		RejectedRequests:  s.stats.rejected.Load(),
		RejectedDeadline:  s.stats.rejectedDeadline.Load(),
		StaleServed:       s.stats.staleServed.Load(),
		PeerFill: PeerFillMetrics{
			Filled:       s.stats.peerFilled.Load(),
			Misses:       s.stats.peerFillMisses.Load(),
			ServedHits:   s.stats.cachefillHits.Load(),
			ServedMisses: s.stats.cachefillMisses.Load(),
		},
		Sessions: s.sessions.Stats(),
	}
	runs := m.Sessions.Hits + m.Sessions.Misses
	m.Batch = BatchMetrics{Flushes: runs, BatchedRequests: runs}
	ph, pm, pe, pl := exp.PlanCacheSnapshot()
	m.PlanCache = cacheMetrics(ph, pm, pe, pl)
	rh, rm := s.results.Stats()
	m.ResultCache = cacheMetrics(rh, rm, s.results.Evictions(), s.results.Len())
	fh, fm := s.fleetRes.Stats()
	m.FleetCache = cacheMetrics(fh, fm, s.fleetRes.Evictions(), s.fleetRes.Len())
	ch, cm := s.profiler.CacheStats()
	m.FleetProfiler = FleetProfilerMetrics{
		Runs:        s.profiler.Runs(),
		Coalesced:   s.profiler.Coalesced(),
		Cached:      s.profiler.Cached(),
		CacheHits:   ch,
		CacheMisses: cm,
		Pool:        s.profiler.PoolStats(),
	}
	sp := spans.Totals()
	m.Spans = SpanMetrics{
		Snapshots: int64(sp.Snapshots),
		Spans:     int64(sp.Spans),
		Dropped:   int64(sp.Dropped),
	}
	m.SteadyState = exp.GlobalSteadyStats()
	return m
}
