package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ssdtrain/internal/serve"
)

// fakeTransport routes requests to in-process handlers by host — a
// cluster with no sockets and scriptable replicas.
type fakeTransport map[string]http.Handler

func (t fakeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, &http.ProtocolError{ErrorString: "connection refused: " + req.URL.Host}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// replicaStub is a scriptable fake replica.
type replicaStub struct {
	body  string
	fail  atomic.Bool
	slow  atomic.Int64 // response delay in ms
	plans atomic.Int64
}

func (s *replicaStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		if s.fail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok\n"))
		return
	}
	s.plans.Add(1)
	if d := s.slow.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Millisecond)
	}
	if s.fail.Load() {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Write([]byte(s.body))
}

// testCluster wires n stub replicas behind a router with fast test
// timings.
func testCluster(t *testing.T, n int, tweak func(*Options)) (*Router, []*replicaStub) {
	t.Helper()
	stubs := make([]*replicaStub, n)
	transport := fakeTransport{}
	replicas := make([]Replica, n)
	for i := range stubs {
		stubs[i] = &replicaStub{body: "body-" + string(rune('0'+i)) + "\n"}
		host := "stub" + string(rune('0'+i))
		transport[host] = stubs[i]
		replicas[i] = Replica{ID: host, URL: "http://" + host}
	}
	opts := Options{
		Replicas:       replicas,
		Client:         &http.Client{Transport: transport},
		AttemptTimeout: time.Second,
		HedgeDelay:     -1, // off unless a test turns it on
		Backoff:        Backoff{Base: time.Microsecond, Max: time.Millisecond},
		Probe:          ProbeOptions{Interval: -1}, // passive only unless enabled
	}
	if tweak != nil {
		tweak(&opts)
	}
	rt, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt, stubs
}

func planBlob(t *testing.T, micro int) []byte {
	t.Helper()
	blob, err := json.Marshal(serve.PlanRequest{Spec: serve.SpecRequest{
		Model:   serve.ModelSpec{Arch: "bert", Hidden: 2048, Layers: 2, Batch: 4},
		Offload: serve.OffloadRequest{Strategy: "ssdtrain"},
		Run:     serve.RunRequest{MicroBatches: micro},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func routerPost(t *testing.T, rt *Router, blob []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	return rec
}

// TestRoutingIsSticky: the same plan shape always lands on the same
// replica, and cheap-knob variants of one shape follow it there.
func TestRoutingIsSticky(t *testing.T) {
	rt, stubs := testCluster(t, 3, nil)
	blob := planBlob(t, 1)
	for i := 0; i < 5; i++ {
		if rec := routerPost(t, rt, blob); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	hot := 0
	for _, s := range stubs {
		if n := s.plans.Load(); n > 0 {
			hot++
			if n != 5 {
				t.Fatalf("owner saw %d of 5 requests", n)
			}
		}
	}
	if hot != 1 {
		t.Fatalf("%d replicas took traffic for one shape, want 1", hot)
	}
}

// TestRetryFailsOver: a dead owner's traffic retries to the ring
// successor within the same request — no 5xx escapes, and the registry
// hears about the failure.
func TestRetryFailsOver(t *testing.T) {
	rt, stubs := testCluster(t, 3, nil)
	blob := planBlob(t, 1)
	rec := routerPost(t, rt, blob)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm status %d", rec.Code)
	}
	var owner int
	for i, s := range stubs {
		if s.plans.Load() > 0 {
			owner = i
		}
	}
	stubs[owner].fail.Store(true)
	rec = routerPost(t, rt, blob)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover status %d, want 200 via the successor", rec.Code)
	}
	want := rt.fullRing.Successors(mustShape(t, blob))[1]
	if got := rec.Body.String(); got != stubs[want].body {
		t.Fatalf("failover body %q, want successor %d's %q", got, want, stubs[want].body)
	}
	m := rt.Metrics()
	if m.Retries == 0 {
		t.Fatal("failover happened without a retry being counted")
	}
	if m.Replicas[owner].Failures == 0 {
		t.Fatal("registry heard nothing about the dead owner")
	}
}

func mustShape(t *testing.T, blob []byte) uint64 {
	t.Helper()
	rt := &Router{}
	shape, _ := rt.shardKey("plan", blob)
	return shape
}

// TestHedgeRaces: a slow owner is beaten by a hedged attempt to the
// successor; the first answer wins and is counted as a hedge win.
func TestHedgeRaces(t *testing.T) {
	rt, stubs := testCluster(t, 3, func(o *Options) {
		o.HedgeDelay = 2 * time.Millisecond
	})
	blob := planBlob(t, 1)
	owner := rt.fullRing.Owner(mustShape(t, blob))
	stubs[owner].slow.Store(200)
	start := time.Now()
	rec := routerPost(t, rt, blob)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("hedge did not rescue the tail: request took %v", d)
	}
	succ := rt.fullRing.Successors(mustShape(t, blob))[1]
	if got := rec.Body.String(); got != stubs[succ].body {
		t.Fatalf("answer %q, want hedged successor's %q", got, stubs[succ].body)
	}
	m := rt.Metrics()
	if m.Hedges != 1 || m.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", m.Hedges, m.HedgeWins)
	}
}

// TestStaleServeOnTotalLoss: with every replica dead, a previously
// answered question returns its last good body labeled stale; an unseen
// question reports the outage.
func TestStaleServeOnTotalLoss(t *testing.T) {
	rt, stubs := testCluster(t, 2, nil)
	blob := planBlob(t, 1)
	rec := routerPost(t, rt, blob)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm status %d", rec.Code)
	}
	warmBody := rec.Body.String()
	for _, s := range stubs {
		s.fail.Store(true)
	}
	rec = routerPost(t, rt, blob)
	if rec.Code != http.StatusOK {
		t.Fatalf("total loss answered %d, want stale 200", rec.Code)
	}
	if rec.Body.String() != warmBody {
		t.Fatal("stale body differs from the last good answer")
	}
	if rec.Header().Get(serve.HeaderStale) != "true" || rec.Header().Get(serve.HeaderStaleFor) == "" {
		t.Fatalf("stale answer not labeled: %v", rec.Header())
	}
	rec = routerPost(t, rt, planBlob(t, 7))
	if rec.Code < 500 {
		t.Fatalf("unseen question during total loss answered %d, want an error", rec.Code)
	}
	m := rt.Metrics()
	if m.StaleServed != 1 || m.StaleMisses == 0 {
		t.Fatalf("stale counters served=%d misses=%d", m.StaleServed, m.StaleMisses)
	}
}

// TestRetryBudgetStopsStorms: with an empty budget, failures do not fan
// out into retries — the guard against brownout amplification.
func TestRetryBudgetStopsStorms(t *testing.T) {
	rt, stubs := testCluster(t, 3, func(o *Options) {
		o.RetryBudgetRatio = 1e-9
		o.RetryBudgetCap = 1
		o.StaleCapacity = -1
	})
	for _, s := range stubs {
		s.fail.Store(true)
	}
	// First failure spends the single banked token; afterwards failures
	// must return without extra attempts.
	routerPost(t, rt, planBlob(t, 1))
	before := rt.Metrics().Attempts
	routerPost(t, rt, planBlob(t, 2))
	m := rt.Metrics()
	if got := m.Attempts - before; got != 1 {
		t.Fatalf("budget-exhausted request made %d attempts, want exactly 1", got)
	}
	if m.RetryBudgetExhausted == 0 {
		t.Fatal("suppressed retries not counted")
	}
}

// TestEjectionRoutesAround: after enough passive failures the owner is
// ejected and the rebuilt ring routes fresh requests straight to the
// successor — no retry needed.
func TestEjectionRoutesAround(t *testing.T) {
	rt, stubs := testCluster(t, 3, func(o *Options) {
		o.Probe = ProbeOptions{Interval: -1, FailThreshold: 2}
	})
	blob := planBlob(t, 1)
	owner := rt.fullRing.Owner(mustShape(t, blob))
	stubs[owner].fail.Store(true)
	// Two failed forwards eject the owner.
	routerPost(t, rt, blob)
	routerPost(t, rt, blob)
	if rt.Metrics().RingReplicas != 2 {
		t.Fatalf("ring spans %d replicas after ejection, want 2", rt.Metrics().RingReplicas)
	}
	ownerPlans := stubs[owner].plans.Load()
	rec := routerPost(t, rt, blob)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after ejection", rec.Code)
	}
	if got := stubs[owner].plans.Load(); got != ownerPlans {
		t.Fatal("ejected replica still took traffic")
	}
	if m := rt.Metrics(); m.Replicas[owner].Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", m.Replicas[owner].Ejections)
	}
}

// TestReadmissionAfterRecovery: active probes readmit a recovered
// replica and the ring takes it back.
func TestReadmissionAfterRecovery(t *testing.T) {
	rt, stubs := testCluster(t, 3, func(o *Options) {
		o.Probe = ProbeOptions{
			Interval: 5 * time.Millisecond, Timeout: 100 * time.Millisecond,
			FailThreshold: 2, SuccessThreshold: 2,
		}
	})
	ctx := t.Context()
	rt.Start(ctx)
	stubs[1].fail.Store(true)
	waitCond(t, "ejection", func() bool { return rt.Metrics().RingReplicas == 2 })
	stubs[1].fail.Store(false)
	waitCond(t, "readmission", func() bool { return rt.Metrics().RingReplicas == 3 })
	m := rt.Metrics()
	if m.Replicas[1].Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", m.Replicas[1].Readmissions)
	}
	if m.RingRebuilds < 2 {
		t.Fatalf("ring rebuilds = %d, want at least eject+readmit", m.RingRebuilds)
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackoffBounds: delays stay inside the jitter window and cap.
func TestBackoffBounds(t *testing.T) {
	b := Backoff{Base: 4 * time.Millisecond, Max: 20 * time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		limit := min(4<<attempt, 20) // ms
		for i := 0; i < 100; i++ {
			d := b.Delay(attempt)
			if d < 0 || d >= time.Duration(limit)*time.Millisecond {
				t.Fatalf("attempt %d delay %v outside [0, %dms)", attempt, d, limit)
			}
		}
	}
	if (Backoff{}).Delay(3) != 0 {
		t.Fatal("zero backoff should not sleep")
	}
}

// TestBudgetAccounting: tokens accrue per request at the ratio, cap at
// the bucket size, and spend whole.
func TestBudgetAccounting(t *testing.T) {
	b := newBudget(0.5, 2)
	// Drain the initial full bucket.
	for b.trySpend() {
	}
	if b.trySpend() {
		t.Fatal("empty bucket granted a token")
	}
	b.onRequest() // +0.5
	if b.trySpend() {
		t.Fatal("half a token granted a retry")
	}
	b.onRequest() // 1.0
	if !b.trySpend() {
		t.Fatal("a full token refused a retry")
	}
	for i := 0; i < 100; i++ {
		b.onRequest()
	}
	spent := 0
	for b.trySpend() {
		spent++
	}
	if spent != 2 {
		t.Fatalf("bucket held %d tokens, cap is 2", spent)
	}
}

// TestRouterEndpointMetrics: the router's per-endpoint registry counts
// requests by status class and orders its latency quantiles, and
// /metrics negotiates Prometheus text on Accept: text/plain while
// answering JSON otherwise.
func TestRouterEndpointMetrics(t *testing.T) {
	rt, stubs := testCluster(t, 2, nil)
	blob := planBlob(t, 1)
	for i := 0; i < 3; i++ {
		if rec := routerPost(t, rt, blob); rec.Code != http.StatusOK {
			t.Fatalf("plan %d answered %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan answered %d", rec.Code)
	}
	for _, s := range stubs {
		s.fail.Store(true)
	}
	if rec := routerPost(t, rt, planBlob(t, 7)); rec.Code < 500 {
		t.Fatalf("unseen plan during total loss answered %d", rec.Code)
	}

	ep, ok := rt.Metrics().Endpoints["plan"]
	if !ok {
		t.Fatal("no plan endpoint in the router's metrics")
	}
	if ep.Count != 5 || ep.Status2xx != 3 || ep.Status4xx != 1 || ep.Status5xx != 1 {
		t.Fatalf("plan endpoint counts %+v, want 5 = 3 2xx + 1 4xx + 1 5xx", ep)
	}
	if ep.P50Us <= 0 || ep.P50Us > ep.P99Us {
		t.Fatalf("plan latency quantiles p50 %d µs, p99 %d µs", ep.P50Us, ep.P99Us)
	}

	get := func(accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		return rec
	}
	prom := get("text/plain")
	if ct := prom.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Accept: text/plain got Content-Type %q", ct)
	}
	for _, row := range []string{
		`ssdtrain_router_requests_total{endpoint="plan",class="2xx"} 3`,
		`ssdtrain_router_requests_total{endpoint="plan",class="4xx"} 1`,
		`ssdtrain_router_requests_total{endpoint="plan",class="5xx"} 1`,
	} {
		if !strings.Contains(prom.Body.String(), row+"\n") {
			t.Errorf("Prometheus body lacks %q", row)
		}
	}
	js := get("")
	if ct := js.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("no Accept got Content-Type %q", ct)
	}
	var m serve.RouterMetrics
	if err := json.Unmarshal(js.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Endpoints["plan"].Count != 5 {
		t.Fatalf("JSON plan count %d, want 5", m.Endpoints["plan"].Count)
	}
}
