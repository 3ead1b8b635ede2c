package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadOptions configures the built-in load generator (cmd/serve
// -selfcheck and examples/serve_client), which drives a live server with
// a mixed palette of plan requests plus a deliberate wave of concurrent
// identical requests, and reads the server's own /metrics to report
// dedup and cache behaviour.
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Requests is the total number of plan requests (default 200).
	Requests int
	// Concurrency is the number of client workers (default 8).
	Concurrency int
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Requests        int
	Duration        time.Duration
	Throughput      float64 // requests per second
	Status2xx       int
	Status4xx       int
	Status5xx       int
	TransportErrors int
	Mean, P50, P99  time.Duration
	// Mismatches counts determinism violations: concurrent identical
	// requests whose bodies differed, or sweep lines that were not valid
	// JSON — always zero on a correct server.
	Mismatches int
	// SweepErrors counts sweep points the server answered with an inline
	// error line (its documented per-point contract, e.g. saturation) —
	// an availability signal, deliberately separate from Mismatches.
	SweepErrors int
	// Coalesced/ResultCacheHits/SessionHits are server-side deltas read
	// from /metrics across the run.
	Coalesced       int64
	ResultCacheHits int64
	SessionHits     int64
	// Server5xx is the server's own count of 5xx responses over the run —
	// a second witness beyond the client's accounting.
	Server5xx int64
}

func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"load: %d requests in %v (%.1f req/s)\n"+
			"  status          %d ok / %d 4xx / %d 5xx (%d server-side) / %d transport errors\n"+
			"  latency         mean %v, p50 %v, p99 %v\n"+
			"  server dedup    %d coalesced, %d result-cache hits, %d session-pool hits\n"+
			"  mismatches      %d (%d sweep points answered with inline errors)\n",
		r.Requests, r.Duration.Round(time.Millisecond), r.Throughput,
		r.Status2xx, r.Status4xx, r.Status5xx, r.Server5xx, r.TransportErrors,
		r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Coalesced, r.ResultCacheHits, r.SessionHits,
		r.Mismatches, r.SweepErrors)
}

// loadPalette is the distinct request mix the generator cycles through:
// every strategy, two placements, contended and exclusive bandwidth —
// small models so a smoke run finishes in seconds.
func loadPalette() []PlanRequest {
	small := ModelSpec{Arch: "bert", Hidden: 2048, Layers: 2, Batch: 4}
	bigger := ModelSpec{Arch: "gpt", Hidden: 2048, Layers: 2, Batch: 8}
	contended := planOf(small, OffloadRequest{Strategy: "ssdtrain"})
	contended.Spec.Inject.SSDBandwidthShare = 0.5
	return []PlanRequest{
		planOf(small, OffloadRequest{Strategy: "ssdtrain"}),
		contended,
		planOf(small, OffloadRequest{Strategy: "no-offload"}),
		planOf(small, OffloadRequest{Strategy: "recompute"}),
		planOf(small, OffloadRequest{Strategy: "cpu-offload"}),
		planOf(bigger, OffloadRequest{Strategy: "ssdtrain"}),
		planOf(bigger, OffloadRequest{Strategy: "hybrid", DRAMCapacityBytes: 512 << 20}),
		planOf(bigger, OffloadRequest{Strategy: "hybrid", Placement: "ssd-only"}),
	}
}

// planOf is the plan question for a model under the given offload knobs.
func planOf(m ModelSpec, off OffloadRequest) PlanRequest {
	return PlanRequest{Spec: SpecRequest{Model: m, Offload: off}}
}

// postPlan posts one plan request and returns status, body and latency.
func postPlan(client *http.Client, base string, req PlanRequest) (int, []byte, time.Duration, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(start), err
}

// fetchMetrics reads and decodes the server's /metrics snapshot.
func fetchMetrics(client *http.Client, base string) (*Metrics, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: /metrics returned %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// dedupWave fires c concurrent identical requests at a cold config and
// reports body mismatches. Releasing every worker from one barrier makes
// the requests genuinely simultaneous, so all but one coalesce onto the
// first caller's simulation (the server's singleflight or result cache —
// either way the bodies must be byte-identical).
func dedupWave(client *http.Client, base string, req PlanRequest, c int) (mismatches, n5xx, transportErrs int) {
	type out struct {
		status int
		body   []byte
		err    error
	}
	results := make([]out, c)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			status, body, _, err := postPlan(client, base, req)
			results[i] = out{status, body, err}
		}(i)
	}
	close(start)
	wg.Wait()
	var ref []byte
	for _, r := range results {
		if r.err != nil {
			// A connection that failed under the simultaneous burst is
			// exactly what this wave exists to provoke — count it, don't
			// drop it.
			transportErrs++
			continue
		}
		if r.status >= 500 {
			n5xx++
		}
		if r.status != http.StatusOK {
			continue
		}
		if ref == nil {
			ref = r.body
		} else if !bytes.Equal(ref, r.body) {
			mismatches++
		}
	}
	return mismatches, n5xx, transportErrs
}

// RunLoad drives the server at BaseURL: a barrier-released wave of
// identical requests (provoking singleflight dedup), then Requests plan
// requests from Concurrency workers cycling a mixed palette, then one
// small sweep, reading /metrics before and after to report the server's
// dedup and cache deltas.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	if opts.Requests <= 0 {
		opts.Requests = 200
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	before, err := fetchMetrics(client, opts.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("serve: load generator cannot reach server: %w", err)
	}

	rep := &LoadReport{Requests: opts.Requests}

	// Dedup waves: each wave uses a previously unseen config (varied
	// steps) so it cannot be answered from the result cache; retry with a
	// fresh config until the server observed coalescing, bounded so a
	// pathological environment still terminates. The model is 24 layers
	// deep: the warm-up and convergence steps the fast path must simulate
	// take about 7 ms on a 2-vCPU host, so the first request is still
	// running when its twins arrive. A palette model finishes in about
	// 0.5 ms, sometimes before they do.
	for wave := 0; wave < 5; wave++ {
		req := planOf(ModelSpec{Arch: "bert", Hidden: 2048, Layers: 24, Batch: 4}, OffloadRequest{Strategy: "ssdtrain"})
		// Steps is a cheap knob (shared plan shape), but the result cache
		// and singleflight key on the full normalized config — so each
		// wave's config is previously unseen and must coalesce through
		// the flight, not the cache.
		req.Spec.Run.Steps = 4 + wave
		mism, n5xx, terrs := dedupWave(client, opts.BaseURL, req, opts.Concurrency)
		rep.Mismatches += mism
		rep.Status5xx += n5xx
		rep.TransportErrors += terrs
		m, err := fetchMetrics(client, opts.BaseURL)
		if err != nil {
			return nil, err
		}
		if m.CoalescedRequests > before.CoalescedRequests {
			break
		}
	}

	// Main load: Requests posts across Concurrency workers, cycling the
	// palette so the run mixes cold simulations, result-cache hits and
	// in-flight coalescing.
	palette := loadPalette()
	latencies := make([]time.Duration, opts.Requests)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				status, _, lat, err := postPlan(client, opts.BaseURL, palette[i%len(palette)])
				mu.Lock()
				latencies[i] = lat
				switch {
				case err != nil:
					rep.TransportErrors++
				case status >= 500:
					rep.Status5xx++
				case status >= 400:
					rep.Status4xx++
				default:
					rep.Status2xx++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < opts.Requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	rep.Duration = time.Since(start)
	if secs := rep.Duration.Seconds(); secs > 0 {
		rep.Throughput = float64(opts.Requests) / secs
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	if n := len(latencies); n > 0 {
		rep.Mean = sum / time.Duration(n)
		rep.P50 = latencies[n/2]
		rep.P99 = latencies[n*99/100]
	}

	// One small sweep for endpoint coverage: every line must be valid
	// JSON and none may be a server error.
	sweep := SweepRequest{
		Base:   planOf(ModelSpec{Arch: "bert", Hidden: 2048, Layers: 2, Batch: 4}, OffloadRequest{Strategy: "ssdtrain"}),
		Shares: []float64{0.25, 0.5, 1},
	}
	blob, _ := json.Marshal(sweep)
	resp, err := client.Post(opts.BaseURL+"/v1/sweep", "application/json", bytes.NewReader(blob))
	if err != nil {
		rep.TransportErrors++
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			rep.Status5xx++
		}
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var probe map[string]any
			if err := json.Unmarshal(line, &probe); err != nil {
				rep.Mismatches++
			} else if _, bad := probe["error"]; bad {
				rep.SweepErrors++
			}
		}
	}

	after, err := fetchMetrics(client, opts.BaseURL)
	if err != nil {
		return nil, err
	}
	rep.Coalesced = after.CoalescedRequests - before.CoalescedRequests
	rep.ResultCacheHits = after.ResultCache.Hits - before.ResultCache.Hits
	rep.SessionHits = after.Sessions.Hits - before.Sessions.Hits
	rep.Server5xx = sum5xx(after) - sum5xx(before)
	return rep, nil
}

// sum5xx totals server-observed 5xx responses across endpoints — a
// second, server-side witness beyond the client's own counting.
func sum5xx(m *Metrics) int64 {
	var n int64
	for _, ep := range m.Endpoints {
		n += ep.Status5xx
	}
	return n
}
