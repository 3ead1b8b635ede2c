package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// handlerTransport routes peer requests to in-process handlers by base
// URL — a cluster of servers with no sockets.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t["http://"+req.URL.Host]
	if !ok {
		return nil, &http.ProtocolError{ErrorString: "no such peer: " + req.URL.Host}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func memClient(peers handlerTransport) *http.Client {
	return &http.Client{Transport: peers}
}

// TestCachefillWireRoundTrip pins the /v1/cachefill wire contract: a
// normalized exp.RunConfig survives the JSON round trip exactly, so the
// receiving replica's re-normalization lands on the very cache key the
// asker computed. Hybrid knobs, fractional floats and a fault schedule
// ride along to cover every field kind on the struct.
func TestCachefillWireRoundTrip(t *testing.T) {
	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "hybrid", Placement: "split", SplitRatio: 0.3, DRAMCapacityBytes: 256 << 20}, Run: RunRequest{Steps: 5}, Inject: InjectRequest{SSDBandwidthShare: 0.7, Faults: &FaultSpec{DegradeAtUs: 1500, DegradeFactor: 0.5, DegradeForUs: 2500}}}}
	cfg, err := req.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(cachefillRequest{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var got cachefillRequest
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Config != cfg {
		t.Fatalf("config did not survive the wire:\n sent %+v\n got  %+v", cfg, got.Config)
	}
}

// TestPeerFillWarmsColdReplica is the cache-fill contract end to end: a
// cold replica's miss is answered from a warm peer's cache, byte-identical
// to the peer's body, counted on both sides, carrying the original render
// stamp, without the cold replica simulating anything.
func TestPeerFillWarmsColdReplica(t *testing.T) {
	warm := New(Options{ReplicaID: "warm"})
	peers := handlerTransport{"http://warm": warm.Handler()}
	cold := New(Options{
		ReplicaID:  "cold",
		Peers:      []string{"http://warm"},
		PeerClient: memClient(peers),
	})

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}}}
	warmSrv := httptest.NewServer(warm.Handler())
	defer warmSrv.Close()
	coldSrv := httptest.NewServer(cold.Handler())
	defer coldSrv.Close()

	_, warmBody := postJSON(t, warmSrv.URL+"/v1/plan", req)
	resp, coldBody := postJSON(t, coldSrv.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold replica answered %d: %s", resp.StatusCode, coldBody)
	}
	if string(coldBody) != string(warmBody) {
		t.Fatalf("peer-filled body differs from the peer's own:\n%s\nvs\n%s", coldBody, warmBody)
	}
	if got := resp.Header.Get(HeaderReplica); got != "cold" {
		t.Fatalf("replica echo = %q, want %q", got, "cold")
	}
	if m := cold.Metrics(); m.PeerFill.Filled != 1 || m.PeerFill.Misses != 0 {
		t.Fatalf("cold peer-fill counters = %+v, want exactly one fill", m.PeerFill)
	}
	if m := warm.Metrics(); m.PeerFill.ServedHits != 1 {
		t.Fatalf("warm served counters = %+v, want one served hit", m.PeerFill)
	}
	// The fill must not have simulated: the cold replica's arena pool has
	// never executed.
	if m := cold.Metrics(); m.Sessions.Hits+m.Sessions.Misses != 0 {
		t.Fatalf("cold replica simulated (%+v) despite the peer fill", m.Sessions)
	}
	// The filled entry kept the peer's render stamp, not the copy time.
	cfg, err := req.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	_, coldAt, ok := cold.results.Peek(cfg)
	if !ok {
		t.Fatal("fill did not land in the cold replica's cache")
	}
	_, warmAt, _ := warm.results.Peek(cfg)
	if !coldAt.Equal(warmAt) {
		t.Fatalf("filled stamp %v != peer render stamp %v", coldAt, warmAt)
	}
}

// TestPeerFillMissFallsBackToSimulation: with every peer cold (or gone),
// a miss still answers correctly by simulating locally, and both sides
// count the miss.
func TestPeerFillMissFallsBackToSimulation(t *testing.T) {
	other := New(Options{ReplicaID: "other"})
	peers := handlerTransport{"http://other": other.Handler()}
	s := New(Options{
		ReplicaID: "self",
		// One cold peer and one that does not exist at all: neither may
		// stall the miss past the fill timeout or break the request.
		Peers:      []string{"http://other", "http://gone"},
		PeerClient: memClient(peers),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}}}
	resp, body := postJSON(t, srv.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if string(body) != string(freshBody(t, req)) {
		t.Fatal("simulated fallback body differs from a fresh execute")
	}
	if m := s.Metrics(); m.PeerFill.Filled != 0 || m.PeerFill.Misses != 1 {
		t.Fatalf("peer-fill counters = %+v, want exactly one miss", m.PeerFill)
	}
	if m := other.Metrics(); m.PeerFill.ServedMisses != 1 {
		t.Fatalf("peer served counters = %+v, want one served miss", m.PeerFill)
	}
}

// TestCachefillLookupIsInvisible pins the lookup-only contract: a peer's
// cachefill probe must not promote the entry or move the result cache's
// hit/miss counters — remote warmup traffic cannot distort local
// recency or accounting.
func TestCachefillLookupIsInvisible(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "no-offload"}}}
	postJSON(t, srv.URL+"/v1/plan", req)
	cfg, err := req.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := s.results.Stats()
	resp, body := postJSON(t, srv.URL+"/v1/cachefill", cachefillRequest{Config: cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cachefill answered %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(HeaderRenderedAt) == "" {
		t.Fatal("cachefill hit carried no render stamp")
	}
	if h1, m1 := s.results.Stats(); h1 != h0 || m1 != m0 {
		t.Fatalf("cachefill moved cache counters: %d/%d -> %d/%d", h0, m0, h1, m1)
	}
}

// TestStaleLabeling: with StaleAfter set, a cache hit older than the
// threshold carries the staleness headers and counts on /metrics; a
// fresh render does not.
func TestStaleLabeling(t *testing.T) {
	s := New(Options{StaleAfter: 60 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "no-offload"}}}
	resp, _ := postJSON(t, srv.URL+"/v1/plan", req)
	if resp.Header.Get(HeaderStale) != "" {
		t.Fatal("fresh render labeled stale")
	}
	time.Sleep(100 * time.Millisecond)
	resp, _ = postJSON(t, srv.URL+"/v1/plan", req)
	if resp.Header.Get(HeaderStale) != "true" {
		t.Fatal("aged cache hit not labeled stale")
	}
	if resp.Header.Get(HeaderStaleFor) == "" {
		t.Fatal("stale label carried no age")
	}
	if m := s.Metrics(); m.StaleServed != 1 {
		t.Fatalf("stale_served = %d, want 1", m.StaleServed)
	}
}

// TestRetryAfterDerivedFromLoad pins the Retry-After derivation: the
// hint grows with the queue depth and is jittered within [base, 2*base).
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	s := New(Options{Workers: 2, Queue: 8})
	if got := s.retryAfterSeconds(); got < 1 || got > 2 {
		t.Fatalf("idle Retry-After = %d, want 1 or 2", got)
	}
	for i := 0; i < 6; i++ {
		s.limiter.queue <- struct{}{}
	}
	// base = 1 + 6/2 = 4, jittered into [4, 8).
	for i := 0; i < 50; i++ {
		if got := s.retryAfterSeconds(); got < 4 || got >= 8 {
			t.Fatalf("loaded Retry-After = %d, want in [4, 8)", got)
		}
	}
}
