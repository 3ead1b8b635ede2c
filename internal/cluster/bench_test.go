package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The router-overhead workloads: the ring lookup every routed request
// pays, and the full hedged-request path (shard key, ring walk, primary
// forward, hedge fire, hedge win, stale-cache record) over an in-memory
// transport, so the measured cost is the router's own machinery and not
// a socket's.

// benchRing is 8 replicas at the default vnode count.
func benchRing() *Ring {
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-r%d", i)
	}
	return NewRing(ids, 0)
}

// lookups performs n lookups over a spread of keys, reusing the
// destination slice the way the router's serve loop does.
func lookups(r *Ring, dst []int, n int) ([]int, int) {
	sink := 0
	for i := 0; i < n; i++ {
		dst = r.SuccessorsInto(mix64(uint64(i)), dst)
		sink += dst[0]
	}
	return dst, sink
}

// TestRingLookupAllocs pins the per-request shard lookup (owner plus
// successor walk) allocation-free: it runs once per routed request.
func TestRingLookupAllocs(t *testing.T) {
	r := benchRing()
	dst := make([]int, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() { dst, _ = lookups(r, dst, 256) }); allocs != 0 {
		t.Fatalf("ring lookup allocates %.1f/run, want 0", allocs)
	}
}

// ringSink keeps the benchmarked lookups observable to the compiler.
var ringSink int

func BenchmarkRingLookup(b *testing.B) {
	r := benchRing()
	dst := make([]int, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	_, ringSink = lookups(r, dst, b.N)
}

// benchHedgeDelay is deliberately tiny: the hedge fires as soon as the
// runtime's timer granularity allows (~100µs on bare metal, around a
// millisecond on coarse-tick VMs), so ns/op ≈ timer granularity + router
// machinery. The rigged owner waits on its request's context rather
// than a timer, so no scheduling delay lets it answer first.
const benchHedgeDelay = 100 * time.Microsecond

// BenchmarkHedgedRequest drives the full hedged-request path through the
// router handler. Two in-memory replicas answer identically; the shard
// owner never answers before its request is abandoned, so every request
// fires a hedge at the successor and returns the hedge's answer. ns/op
// is bounded below by the hedge delay; allocs/op is what one
// routed-and-hedged request costs in garbage.
func BenchmarkHedgedRequest(b *testing.B) {
	blob := []byte(`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain"}`)
	tr := &benchTransport{payload: []byte(`{"bench":"hedged-request"}` + "\n")}
	rt, err := NewRouter(Options{
		Replicas: []Replica{
			{ID: "hb0", URL: "http://hb0"},
			{ID: "hb1", URL: "http://hb1"},
		},
		Client:         &http.Client{Transport: tr},
		AttemptTimeout: time.Second,
		HedgeDelay:     benchHedgeDelay,
		// Every request must be allowed its hedge, or the bench would
		// silently degrade into measuring the owner's rigged latency.
		RetryBudgetRatio: 1,
		RetryBudgetCap:   1 << 20,
		Probe:            ProbeOptions{Interval: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	shape, _ := rt.shardKey("plan", blob)
	owner := rt.ring.Load().Owner(shape)
	tr.slowHost = strings.TrimPrefix(rt.opts.Replicas[owner].URL, "http://")
	h := rt.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cancelling the request once it is answered releases the owner's
		// attempt, which is still waiting.
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/plan", bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		rec := &benchRecorder{}
		h.ServeHTTP(rec, req)
		cancel()
		if rec.status != http.StatusOK {
			b.Fatalf("request %d answered %d", i, rec.status)
		}
	}
	b.StopTimer()
	if wins := rt.Metrics().HedgeWins; wins < int64(b.N) {
		b.Fatalf("%d hedge wins for %d requests: the rigged owner answered first", wins, b.N)
	}
}

// benchTransport is the in-memory replica pair: the slow host answers
// only with its request's cancellation, everyone else with the same
// fixed body.
type benchTransport struct {
	slowHost string
	payload  []byte
}

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	if req.URL.Host == t.slowHost {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     h,
		Body:       io.NopCloser(bytes.NewReader(t.payload)),
		Request:    req,
	}, nil
}

// benchRecorder is a minimal ResponseWriter that discards bodies, so the
// bench measures the router, not a recorder's buffer growth.
type benchRecorder struct {
	header http.Header
	status int
}

func (r *benchRecorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

func (r *benchRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *benchRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return len(p), nil
}
