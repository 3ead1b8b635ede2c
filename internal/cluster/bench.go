package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// This file holds the router-overhead benchmark workloads cmd/bench
// drives (and internal/cluster's own Benchmark* wrappers reuse): the
// ring lookup every routed request pays, which must stay
// allocation-free, and the full hedged-request path — shard key, ring
// walk, primary forward, hedge fire, hedge win, stale-cache record —
// over an in-memory transport, so the measured cost is the router's
// own machinery and not a socket's.

// RingBench measures the per-request shard lookup: Owner plus the
// successor walk that yields the failover order.
type RingBench struct {
	ring *Ring
	dst  []int
	sink int
}

// NewRingBench builds the ring outside the timed region.
func NewRingBench(replicas int) *RingBench {
	ids := make([]string, replicas)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-r%d", i)
	}
	return &RingBench{ring: NewRing(ids, 0), dst: make([]int, 0, replicas)}
}

// Lookup performs n lookups over a spread of keys, reusing the
// destination slice the way the router's serve loop does. The path must
// stay allocation-free: it runs once per routed request.
func (rb *RingBench) Lookup(n int) {
	sink := 0
	for i := 0; i < n; i++ {
		key := mix64(uint64(i))
		rb.dst = rb.ring.SuccessorsInto(key, rb.dst)
		sink += rb.dst[0]
	}
	rb.sink = sink
}

// HedgeBench measures the full hedged-request path through the router
// handler. Two in-memory replicas answer identically; the shard owner
// is rigged never to answer before its request is abandoned, so every
// request decodes its shard key, walks the ring, forwards to the owner,
// fires a hedge at the successor and returns the hedge's answer. ns/op
// is therefore bounded below by the configured hedge delay; allocs/op is
// the durable number — what one routed-and-hedged request costs in
// garbage.
type HedgeBench struct {
	rt   *Router
	blob []byte
}

// benchHedgeDelay is deliberately tiny — the hedge fires as soon as the
// runtime's timer granularity allows (~100µs on bare metal, around a
// millisecond on coarse-tick VMs) — so ns/op ≈ timer granularity +
// router machinery. The rigged owner waits on its request's context
// rather than a timer, so no scheduling delay lets it answer first.
const benchHedgeDelay = 100 * time.Microsecond

// NewHedgeBench wires the two-replica in-memory cluster outside the
// timed region.
func NewHedgeBench() (*HedgeBench, error) {
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
		return nil, err
	}
	shape, _ := rt.shardKey("plan", blob)
	owner := rt.ring.Load().Owner(shape)
	tr.slowHost = strings.TrimPrefix(rt.opts.Replicas[owner].URL, "http://")
	return &HedgeBench{rt: rt, blob: blob}, nil
}

// Do routes n requests and fails unless every one succeeded and the
// hedge path demonstrably carried the load.
func (hb *HedgeBench) Do(n int) error {
	h := hb.rt.Handler()
	before := hb.rt.Metrics().HedgeWins
	for i := 0; i < n; i++ {
		// Cancelling the request once it is answered releases the owner's
		// attempt, which is still waiting.
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/plan", bytes.NewReader(hb.blob))
		if err != nil {
			cancel()
			return err
		}
		rec := &benchRecorder{}
		h.ServeHTTP(rec, req)
		cancel()
		if rec.status != http.StatusOK {
			return fmt.Errorf("cluster: hedge bench request %d answered %d", i, rec.status)
		}
	}
	m := hb.rt.Metrics()
	if wins := m.HedgeWins - before; wins < int64(n) {
		return fmt.Errorf("cluster: hedge bench: %d hedge wins for %d requests — the rigged owner answered first", wins, n)
	}
	return nil
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

// benchRecorder is a minimal ResponseWriter that discards bodies — the
// bench measures the router, not a recorder's buffer growth.
type benchRecorder struct {
	header http.Header
	status int
	wrote  int
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
	r.wrote += len(p)
	return len(p), nil
}
