package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/lru"
	"ssdtrain/internal/serve"
)

// Options configures a Router.
type Options struct {
	// Replicas is the cluster membership. Indices are stable identities:
	// the ring, the registry and /metrics all refer to replicas by
	// position here.
	Replicas []Replica
	// VNodes is the virtual-node count per replica (0 = DefaultVNodes).
	VNodes int
	// Client issues forwards and probes (nil = a default client; tests
	// and drills inject in-memory transports).
	Client *http.Client
	// AttemptTimeout bounds one upstream attempt (0 = DefaultAttemptTimeout).
	AttemptTimeout time.Duration
	// MaxAttempts bounds sequential attempts per request, the first
	// included; hedges are gated separately by the budget
	// (0 = DefaultMaxAttempts).
	MaxAttempts int
	// HedgeDelay is how long the primary attempt may run before a
	// speculative attempt is fired at the next ring successor
	// (0 = DefaultHedgeDelay, negative = hedging off). First answer wins;
	// the loser is cancelled by the request finishing. Hedges trade a
	// bounded amount of duplicate work for the tail: a request that
	// landed on a slow or dying replica is not stuck behind the full
	// attempt timeout.
	HedgeDelay time.Duration
	// Backoff paces sequential retries (zero value = DefaultBackoff).
	Backoff Backoff
	// RetryBudgetRatio is how many retry/hedge tokens each routed request
	// earns (0 = DefaultRetryBudgetRatio). RetryBudgetCap bounds the
	// bucket (0 = DefaultRetryBudgetCap).
	RetryBudgetRatio float64
	RetryBudgetCap   float64
	// StaleCapacity sizes the last-good body cache backing the
	// stale-serve fallback (0 = DefaultStaleCapacity, negative = no
	// stale serving).
	StaleCapacity int
	// Probe tunes the health checker.
	Probe ProbeOptions
}

// Router option defaults.
const (
	DefaultAttemptTimeout   = time.Minute
	DefaultMaxAttempts      = 3
	DefaultHedgeDelay       = 200 * time.Millisecond
	DefaultRetryBudgetRatio = 0.2
	DefaultRetryBudgetCap   = 16
	DefaultStaleCapacity    = 512
)

// DefaultBackoff paces retries: full jitter over an exponentially
// growing window starting at 5ms, capped at 100ms — long enough to
// de-correlate a herd, short enough that a failover is not slower than
// the simulation it protects.
var DefaultBackoff = Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}

// maxForwardBody bounds buffered upstream responses. The router buffers
// whole bodies on purpose: a buffered response can be retried, hedged,
// byte-compared and kept for stale serving, none of which a pass-through
// stream allows. Sweep responses are the large case and are bounded by
// the sweep point limit times a small body.
const maxForwardBody = 8 << 20

// Router is the consistent-hash front of a planning cluster. It owns no
// simulation: every answer comes from a replica, a retry, a hedge or the
// stale cache, and every 200 body is byte-identical to what a fresh
// simulation of the same config renders.
type Router struct {
	opts     Options
	registry *registry
	ring     atomic.Pointer[Ring]
	fullRing *Ring
	stale    *lru.Cache[staleKey, []byte]
	budget   *budget
	stats    *routerStats
	mux      *http.ServeMux
}

// staleKey identifies one last-good body: the endpoint plus the exact
// answer identity (exp.ConfigHash for plan bodies, a raw-body digest
// otherwise).
type staleKey struct {
	endpoint string
	hash     uint64
}

// NewRouter builds a Router; call Start to begin health probing.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, errors.New("cluster: a router needs at least one replica")
	}
	for i, r := range opts.Replicas {
		if r.ID == "" || r.URL == "" {
			return nil, fmt.Errorf("cluster: replica %d needs both an id and a url", i)
		}
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = DefaultAttemptTimeout
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	switch {
	case opts.HedgeDelay == 0:
		opts.HedgeDelay = DefaultHedgeDelay
	case opts.HedgeDelay < 0:
		opts.HedgeDelay = 0
	}
	if opts.Backoff == (Backoff{}) {
		opts.Backoff = DefaultBackoff
	}
	if opts.RetryBudgetRatio <= 0 {
		opts.RetryBudgetRatio = DefaultRetryBudgetRatio
	}
	if opts.RetryBudgetCap <= 0 {
		opts.RetryBudgetCap = DefaultRetryBudgetCap
	}
	rt := &Router{
		opts:   opts,
		budget: newBudget(opts.RetryBudgetRatio, opts.RetryBudgetCap),
		stats:  newRouterStats(time.Now()),
		mux:    http.NewServeMux(),
	}
	switch {
	case opts.StaleCapacity == 0:
		opts.StaleCapacity = DefaultStaleCapacity
		fallthrough
	case opts.StaleCapacity > 0:
		rt.stale = lru.New[staleKey, []byte](opts.StaleCapacity)
	}
	rt.registry = newRegistry(opts.Replicas, opts.Client, opts.Probe, rt.rebuild)
	rt.fullRing = NewRing(rt.registry.allIDs(), opts.VNodes)
	rt.ring.Store(rt.fullRing)
	for _, ep := range []string{"plan", "sweep", "trace", "fleet"} {
		ep := ep
		rt.mux.HandleFunc("/v1/"+ep, func(w http.ResponseWriter, r *http.Request) {
			rt.handle(w, r, ep)
		})
	}
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return rt, nil
}

// Start begins active health probing; probing stops when ctx ends.
func (rt *Router) Start(ctx context.Context) { rt.registry.start(ctx) }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// rebuild swaps in a fresh ring over the currently healthy replicas,
// falling back to the full-membership ring when nobody is healthy —
// trying dead replicas beats refusing everyone, and the stale fallback
// still catches total loss.
func (rt *Router) rebuild() {
	rt.stats.ringRebuilds.Add(1)
	ring := NewRing(rt.registry.healthyIDs(), rt.opts.VNodes)
	if ring.Len() == 0 {
		ring = rt.fullRing
	}
	rt.ring.Store(ring)
}

// shardKey derives the routing key (the plan-shape hash) and the stale
// cache key from one request body. Bodies that fail to decode route by
// raw digest — the owning replica then answers the 4xx, so the router
// never duplicates the service's validation rules.
func (rt *Router) shardKey(endpoint string, body []byte) (uint64, staleKey) {
	digest := func() uint64 {
		h := fnv.New64a()
		h.Write([]byte(endpoint))
		h.Write(body)
		return h.Sum64()
	}
	switch endpoint {
	case "plan", "trace":
		var req serve.PlanRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return digest(), staleKey{endpoint, digest()}
		}
		cfg, err := req.RunConfig()
		if err != nil {
			return digest(), staleKey{endpoint, digest()}
		}
		shape, err := exp.ShapeHash(cfg)
		if err != nil {
			return digest(), staleKey{endpoint, digest()}
		}
		exact, _ := exp.ConfigHash(cfg)
		return shape, staleKey{endpoint, exact}
	case "sweep":
		var req serve.SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return digest(), staleKey{endpoint, digest()}
		}
		cfg, err := req.Base.RunConfig()
		if err != nil {
			return digest(), staleKey{endpoint, digest()}
		}
		shape, err := exp.ShapeHash(cfg)
		if err != nil {
			return digest(), staleKey{endpoint, digest()}
		}
		return shape, staleKey{endpoint, digest()}
	default:
		d := digest()
		return d, staleKey{endpoint, d}
	}
}

// attemptOut is one upstream attempt's outcome.
type attemptOut struct {
	replica int
	hedge   bool
	status  int
	header  http.Header
	body    []byte
	err     error
}

// ok reports a terminal answer the caller should receive as-is: any
// response except saturation (429) and server errors, which retry.
func (o *attemptOut) ok() bool {
	return o.err == nil && o.status < 500 && o.status != http.StatusTooManyRequests
}

// forward performs one attempt against replica rep.
func (rt *Router) forward(ctx context.Context, endpoint string, body []byte, rep int, hedge bool) attemptOut {
	out := attemptOut{replica: rep, hedge: hedge}
	ctx, cancel := context.WithTimeout(ctx, rt.opts.AttemptTimeout)
	defer cancel()
	url := rt.opts.Replicas[rep].URL + "/v1/" + endpoint
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil {
		out.err = err
		return out
	}
	out.status = resp.StatusCode
	out.header = resp.Header
	out.body = blob
	return out
}

// do runs the attempt loop for one request: the primary forward to the
// shard owner, a budgeted hedge to the next successor if the primary
// outlives the hedge delay, and budgeted, backoff-paced retries down the
// successor list on failure. It returns the first terminal answer, or
// the last failure once every permitted attempt is spent.
func (rt *Router) do(ctx context.Context, endpoint string, body []byte, order []int) attemptOut {
	results := make(chan attemptOut, len(order))
	inflight, started, retries := 0, 0, 0
	launch := func(hedge bool) {
		rep := order[started]
		started++
		inflight++
		rt.stats.attempts.Add(1)
		go func() { results <- rt.forward(ctx, endpoint, body, rep, hedge) }()
	}
	launch(false)
	var hedgeC <-chan time.Time
	if rt.opts.HedgeDelay > 0 && len(order) > 1 {
		t := time.NewTimer(rt.opts.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	var last attemptOut
	for inflight > 0 {
		select {
		case o := <-results:
			inflight--
			if o.err != nil || o.status >= 500 {
				rt.registry.reportFailure(o.replica)
			} else {
				rt.registry.reportSuccess(o.replica)
			}
			if o.ok() {
				if o.hedge {
					rt.stats.hedgeWins.Add(1)
				}
				return o
			}
			last = o
			if started < len(order) && retries+1 < rt.opts.MaxAttempts {
				if rt.budget.trySpend() {
					retries++
					rt.stats.retries.Add(1)
					sleepCtx(ctx, rt.opts.Backoff.Delay(retries-1))
					launch(false)
				} else {
					rt.stats.budgetExhausted.Add(1)
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if started < len(order) {
				if rt.budget.trySpend() {
					rt.stats.hedges.Add(1)
					launch(true)
				} else {
					rt.stats.budgetExhausted.Add(1)
				}
			}
		}
	}
	return last
}

func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// forwardedHeaders is what the router relays from a replica answer: the
// content type plus the cluster attribution and staleness labels.
var forwardedHeaders = []string{
	"Content-Type", "Retry-After",
	serve.HeaderReplica, serve.HeaderStale, serve.HeaderStaleFor, serve.HeaderRenderedAt,
}

func (rt *Router) handle(w http.ResponseWriter, r *http.Request, endpoint string) {
	start := time.Now()
	ep := rt.stats.endpoints.Endpoint(endpoint)
	status := rt.serve(w, r, endpoint)
	ep.Observe(status, time.Since(start))
}

func (rt *Router) serve(w http.ResponseWriter, r *http.Request, endpoint string) int {
	if r.Method != http.MethodPost {
		return writeJSONError(w, http.StatusMethodNotAllowed, "cluster: POST only")
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return writeJSONError(w, http.StatusBadRequest, "cluster: "+err.Error())
	}
	rt.stats.requests.Add(1)
	rt.budget.onRequest()

	shape, sk := rt.shardKey(endpoint, body)
	order := rt.ring.Load().Successors(shape)
	if len(order) == 0 {
		order = rt.fullRing.Successors(shape)
	}
	out := rt.do(r.Context(), endpoint, body, order)
	if out.ok() {
		if out.status == http.StatusOK && endpoint != "trace" && rt.stale != nil {
			rt.stale.PutStamped(sk, out.body, time.Now())
		}
		for _, h := range forwardedHeaders {
			if v := out.header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(out.status)
		w.Write(out.body)
		return out.status
	}

	// Every permitted attempt failed. Degrade to the last good body for
	// this exact question — deterministic bodies never expire, they only
	// age, so a labeled stale 200 strictly beats a 5xx.
	if rt.stale != nil {
		if blob, at, hit := rt.stale.GetStamped(sk); hit {
			rt.stats.staleServed.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(serve.HeaderStale, "true")
			w.Header().Set(serve.HeaderStaleFor, time.Since(at).Round(time.Millisecond).String())
			w.WriteHeader(http.StatusOK)
			w.Write(blob)
			return http.StatusOK
		}
		rt.stats.staleMisses.Add(1)
	}
	if out.err != nil {
		return writeJSONError(w, http.StatusBadGateway, "cluster: no replica answered: "+out.err.Error())
	}
	// Forward the cluster-wide verdict (e.g. 429 when every replica is
	// saturated) untouched.
	for _, h := range forwardedHeaders {
		if v := out.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
	return out.status
}

// writeJSONError mirrors serve's error body shape so clients parse one
// schema whichever layer answered.
func writeJSONError(w http.ResponseWriter, status int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	blob, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	w.Write(append(blob, '\n'))
	return status
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "cluster: GET only")
		return
	}
	m := rt.Metrics()
	if serve.WantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(m.Prometheus())
		return
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(blob, '\n'))
}

// Metrics snapshots the router's counters.
func (rt *Router) Metrics() serve.RouterMetrics {
	m := serve.RouterMetrics{
		UptimeSeconds:        time.Since(rt.stats.start).Seconds(),
		Endpoints:            rt.stats.endpoints.Snapshot(),
		Requests:             rt.stats.requests.Load(),
		Attempts:             rt.stats.attempts.Load(),
		Retries:              rt.stats.retries.Load(),
		Hedges:               rt.stats.hedges.Load(),
		HedgeWins:            rt.stats.hedgeWins.Load(),
		RetryBudgetExhausted: rt.stats.budgetExhausted.Load(),
		StaleServed:          rt.stats.staleServed.Load(),
		StaleMisses:          rt.stats.staleMisses.Load(),
		RingReplicas:         rt.ring.Load().Len(),
		RingRebuilds:         rt.stats.ringRebuilds.Load(),
		Replicas:             rt.registry.snapshot(),
	}
	return m
}

// routerStats holds the router's own counters; per-endpoint request
// counts and latencies use the serve layer's registry.
type routerStats struct {
	start     time.Time
	endpoints *serve.EndpointRegistry

	requests        atomic.Int64
	attempts        atomic.Int64
	retries         atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	budgetExhausted atomic.Int64
	staleServed     atomic.Int64
	staleMisses     atomic.Int64
	ringRebuilds    atomic.Int64
}

func newRouterStats(start time.Time) *routerStats {
	return &routerStats{start: start, endpoints: serve.NewEndpointRegistry()}
}
