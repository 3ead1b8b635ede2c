package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssdtrain/internal/exp"
)

// smallModel is the test model: small enough that a single measurement
// is milliseconds, real enough that every strategy produces offload
// traffic.
func smallModel() ModelSpec {
	return ModelSpec{Arch: "bert", Hidden: 2048, Layers: 2, Batch: 4}
}

// identityGrid is every strategy × placement the byte-identity test
// exercises, with contended-bandwidth and DRAM-capacity variants.
func identityGrid() []PlanRequest {
	m := smallModel()
	return []PlanRequest{
		{Model: m, Strategy: "no-offload"},
		{Model: m, Strategy: "recompute"},
		{Model: m, Strategy: "ssdtrain"},
		{Model: m, Strategy: "ssdtrain", SSDBandwidthShare: 0.5},
		{Model: m, Strategy: "cpu-offload"},
		{Model: m, Strategy: "cpu-offload", DRAMCapacityBytes: 1 << 31},
		{Model: m, Strategy: "hybrid", DRAMCapacityBytes: 256 << 20},
		{Model: m, Strategy: "hybrid", Placement: "ssd-only", DRAMCapacityBytes: 256 << 20},
		{Model: m, Strategy: "hybrid", Placement: "split", SplitRatio: 0.5, DRAMCapacityBytes: 256 << 20},
	}
}

// freshBody renders the request the reference way: a fresh Plan.Execute
// on a single-use arena, no pool, no cache, no batch.
func freshBody(t *testing.T, req PlanRequest) []byte {
	t.Helper()
	cfg, err := req.runConfig()
	if err != nil {
		t.Fatalf("runConfig(%+v): %v", req, err)
	}
	plan, err := exp.Compile(cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := plan.Execute(cfg)
	if err != nil {
		t.Fatalf("fresh execute: %v", err)
	}
	return RenderPlanResult(res)
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// TestPlanByteIdentityConcurrent is the concurrent-correctness pin: N
// goroutines hammer /v1/plan with identical and with distinct configs —
// every strategy × placement — against a server deliberately configured
// for churn (result cache far smaller than the working set, a
// single-arena session pool that evicts on every cross-shape release,
// same-shape requests batching behind each other), interleaved with
// requests that error
// mid-simulation on the same arenas. Every 200 body must be
// byte-identical to rendering a fresh Plan.Execute. Run under -race this
// is also the proof that the cache/arena layers are safe to share.
func TestPlanByteIdentityConcurrent(t *testing.T) {
	grid := identityGrid()
	want := make([][]byte, len(grid))
	for i, req := range grid {
		want[i] = freshBody(t, req)
	}

	srv := New(Options{
		Workers:         4,
		Queue:           4096,
		CacheCapacity:   2, // working set is len(grid): constant result-cache eviction
		MaxIdleSessions: 1, // every cross-shape release evicts an arena
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Overflow config: same plan shape (and therefore same pooled
	// arenas) as the healthy cpu-offload entries, but its pinned pool
	// cannot hold one block — the run errors mid-simulation, and the
	// arena it dirtied must still serve byte-identical healthy runs.
	overflow := PlanRequest{Model: smallModel(), Strategy: "cpu-offload", DRAMCapacityBytes: 1 << 20}
	// Invalid config: rejected at validation (400), never executed.
	invalid := PlanRequest{Model: smallModel(), Strategy: "ssdtrain", SplitRatio: 0.5}

	const goroutines = 6
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*(len(grid)+2))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range grid {
					i := (k + g) % len(grid) // rotate per goroutine: distinct and identical mixes
					blob, _ := json.Marshal(grid[i])
					resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(blob))
					if err != nil {
						errs <- err
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("grid[%d]: status %d: %s", i, resp.StatusCode, body)
						continue
					}
					if !bytes.Equal(body, want[i]) {
						errs <- fmt.Errorf("grid[%d]: served body differs from fresh Plan.Execute\n got: %s\nwant: %s", i, body, want[i])
					}
					// Interleave failures: every goroutine periodically
					// throws an erroring and an invalid request into the mix.
					if k == g%len(grid) {
						blob, _ := json.Marshal(overflow)
						resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(blob))
						if err != nil {
							errs <- err
						} else {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							if resp.StatusCode != http.StatusUnprocessableEntity {
								errs <- fmt.Errorf("overflow request: status %d, want 422", resp.StatusCode)
							}
						}
						blob, _ = json.Marshal(invalid)
						resp, err = http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(blob))
						if err != nil {
							errs <- err
						} else {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							if resp.StatusCode != http.StatusBadRequest {
								errs <- fmt.Errorf("invalid request: status %d, want 400", resp.StatusCode)
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.Metrics()
	if m.Sessions.Evictions == 0 {
		t.Error("session pool never evicted: the test did not exercise eviction churn")
	}
	if m.ResultCache.Evictions == 0 {
		t.Error("result cache never evicted: the test did not exercise capacity misses")
	}
}

// TestSweepStream pins /v1/sweep: the NDJSON lines are exactly the
// per-point /v1/plan bodies, in cross-product order.
func TestSweepStream(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	shares := []float64{0.25, 0.5, 1}
	req := SweepRequest{
		Base:   PlanRequest{Model: smallModel(), Strategy: "ssdtrain"},
		Shares: shares,
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	if n := len(lines); n != len(shares)+1 || len(lines[n-1]) != 0 {
		t.Fatalf("got %d lines, want %d newline-terminated", n-1, len(shares))
	}
	for i, share := range shares {
		point := PlanRequest{Model: smallModel(), Strategy: "ssdtrain", SSDBandwidthShare: share}
		if want := freshBody(t, point); !bytes.Equal(lines[i], want) {
			t.Errorf("sweep line %d (share %v) differs from fresh Plan.Execute", i, share)
		}
	}
}

// TestBackpressure pins the 429 path: with the only worker slot held
// and no wait queue, a cold plan request is refused with Retry-After,
// while a cached config is still served (reads need no slot).
func TestBackpressure(t *testing.T) {
	srv := New(Options{Workers: 1, Queue: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	warm := PlanRequest{Model: smallModel(), Strategy: "no-offload"}
	if resp, body := postJSON(t, ts.URL+"/v1/plan", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, body)
	}

	if !srv.limiter.acquire(t.Context()) {
		t.Fatal("could not take the only worker slot")
	}
	defer srv.limiter.release()

	cold := PlanRequest{Model: smallModel(), Strategy: "recompute"}
	resp, body := postJSON(t, ts.URL+"/v1/plan", cold)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated cold request: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/plan", warm); resp.StatusCode != http.StatusOK {
		t.Errorf("cached config refused under saturation: status %d", resp.StatusCode)
	}
	if srv.Metrics().RejectedRequests == 0 {
		t.Error("rejection not counted")
	}
}

// holdFirstBatch swaps in an executor that holds the server's first
// batch until release is called; running is closed once it is held.
// release is idempotent, so a test can also defer it to free the held
// request before its server closes. The executor is swapped before the
// server starts (goroutine creation is the happens-before edge), never
// while it serves.
func holdFirstBatch(srv *Server) (running <-chan struct{}, release func()) {
	held, free := make(chan struct{}), make(chan struct{})
	var batches atomic.Int32
	srv.batcher.exec = func(cfgs []exp.RunConfig) []exp.BatchResult {
		if batches.Add(1) == 1 {
			close(held)
			<-free
		}
		return srv.runPooled(cfgs)
	}
	return held, sync.OnceFunc(func() { close(free) })
}

// shareRequests returns same-shape plan requests that differ only in
// their SSD bandwidth share, and the shape they share.
func shareRequests(t *testing.T, shares ...float64) ([]PlanRequest, exp.RunConfig) {
	t.Helper()
	reqs := make([]PlanRequest, len(shares))
	for i, share := range shares {
		reqs[i] = PlanRequest{Model: smallModel(), Strategy: "ssdtrain", SSDBandwidthShare: share}
	}
	cfg, err := reqs[0].RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	shape, err := exp.ShapeKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reqs, shape
}

// TestGroupCommitBatchesWaitingArrivals pins the batcher's group commit:
// same-shape requests with distinct cheap knobs that arrive while every
// worker slot is busy wait as one batch and execute together on one
// arena once a slot frees. The running batch is held until every other
// request has joined, so the batch forms whatever the scheduling.
func TestGroupCommitBatchesWaitingArrivals(t *testing.T) {
	srv := New(Options{Workers: 1})
	running, release := holdFirstBatch(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	reqs, shape := shareRequests(t, 0.2, 0.4, 0.6, 0.8)
	want := make([][]byte, len(reqs))
	for i := range reqs {
		want[i] = freshBody(t, reqs[i])
	}
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/plan", reqs[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			} else if !bytes.Equal(body, want[i]) {
				t.Errorf("request %d: batched body differs from fresh Plan.Execute", i)
			}
		}()
	}
	post(0)
	<-running
	for i := 1; i < len(reqs); i++ {
		post(i)
	}
	waitFor(t, "the other requests wait as one batch, each in the wait line", func() bool {
		srv.batcher.mu.Lock()
		defer srv.batcher.mu.Unlock()
		bt := srv.batcher.waiting[shape]
		return bt != nil && len(bt.cfgs) == len(reqs)-1 && srv.limiter.waiting() == len(reqs)-1
	})
	release()
	wg.Wait()

	m := srv.Metrics()
	if m.Batch.MaxBatch < 2 {
		t.Errorf("max batch = %d, want >= 2 (batches %d, batched %d)",
			m.Batch.MaxBatch, m.Batch.Flushes, m.Batch.BatchedRequests)
	}
	if builds := srv.sessions.Stats().Misses; builds >= int64(len(reqs)) {
		t.Errorf("batched requests built %d arenas, want fewer than %d", builds, len(reqs))
	}
}

// TestBatcherBackpressure: requests waiting to join a batch count
// against the wait line. With the only worker slot running a batch of
// shape S and the one wait-line place taken by the next S batch, a
// further S request is refused with 429 and Retry-After instead of
// joining; once the slot frees, the admitted requests complete.
func TestBatcherBackpressure(t *testing.T) {
	// The deadline turns a request that waits instead of being refused
	// into a 503 rather than a hang.
	srv := New(Options{Workers: 1, Queue: 1, RequestTimeout: 10 * time.Second})
	running, release := holdFirstBatch(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	reqs, shape := shareRequests(t, 0.2, 0.4, 0.6)
	codes := make(chan int, 2)
	post := func(req PlanRequest) {
		resp, _ := postJSON(t, ts.URL+"/v1/plan", req)
		codes <- resp.StatusCode
	}
	go post(reqs[0])
	<-running
	go post(reqs[1])
	waitFor(t, "the second request's batch holds the wait line", func() bool {
		srv.batcher.mu.Lock()
		defer srv.batcher.mu.Unlock()
		return srv.batcher.waiting[shape] != nil && srv.limiter.waiting() == 1
	})
	resp, body := postJSON(t, ts.URL+"/v1/plan", reqs[2])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-shape request past the wait line: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	release()
	for range 2 {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("admitted request: status %d", code)
		}
	}
	if srv.Metrics().RejectedRequests != 1 {
		t.Errorf("rejected %d requests, want 1", srv.Metrics().RejectedRequests)
	}
}

// TestSameShapeUsesEveryWorker: a request that arrives while a batch of
// its shape runs starts a batch of its own on another free worker slot,
// so one shape's traffic is not held to one worker.
func TestSameShapeUsesEveryWorker(t *testing.T) {
	// The deadline turns a request that waits for the held batch into a
	// 503 rather than a hang.
	srv := New(Options{Workers: 2, RequestTimeout: 10 * time.Second})
	running, release := holdFirstBatch(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	reqs, _ := shareRequests(t, 0.2, 0.4)
	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/plan", reqs[0])
		first <- resp.StatusCode
	}()
	<-running
	if resp, body := postJSON(t, ts.URL+"/v1/plan", reqs[1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("same-shape request beside a held batch: status %d: %s", resp.StatusCode, body)
	}
	release()
	if code := <-first; code != http.StatusOK {
		t.Errorf("held request: status %d", code)
	}
}

// TestGroupCommitStress runs concurrent clients over several plan
// shapes, each asking distinct cheap-knob variants in its own order, so
// batches of every size form and retire while other shapes run. Every
// body must be byte-identical to rendering a fresh exp.Run, and once the
// clients are done the batcher must have retired every shape and the
// limiter must be back at zero.
func TestGroupCommitStress(t *testing.T) {
	var reqs []PlanRequest
	for _, base := range []PlanRequest{
		{Model: smallModel(), Strategy: "ssdtrain"},
		{Model: smallModel(), Strategy: "hybrid", DRAMCapacityBytes: 256 << 20},
		{Model: ModelSpec{Arch: "gpt", Hidden: 2048, Layers: 2, Batch: 4}, Strategy: "ssdtrain"},
	} {
		for _, share := range []float64{0.3, 0.5, 0.7, 0.9} {
			r := base
			r.SSDBandwidthShare = share
			reqs = append(reqs, r)
		}
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		cfg, err := req.RunConfig()
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = RenderPlanResult(res)
	}

	// A one-body result cache sends nearly every request to the batcher.
	srv := New(Options{Workers: 2, Queue: 4096, CacheCapacity: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients, rounds = 6, 3
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range rounds * len(reqs) {
				i := (k*5 + c*3) % len(reqs) // a different order per client
				resp, body := postJSON(t, ts.URL+"/v1/plan", reqs[i])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				} else if !bytes.Equal(body, want[i]) {
					t.Errorf("request %d: served body differs from a fresh exp.Run", i)
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "batcher retired every shape and limiter drained", func() bool {
		srv.batcher.mu.Lock()
		defer srv.batcher.mu.Unlock()
		return len(srv.batcher.waiting) == 0 && len(srv.limiter.slots) == 0 && srv.limiter.waiting() == 0
	})
	if m := srv.Metrics(); m.Batch.Flushes == 0 {
		t.Error("no request went through the batcher")
	}
}

// TestMetricsEndpoint checks the snapshot parses and the counters move.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := PlanRequest{Model: smallModel(), Strategy: "ssdtrain"}
	for i := 0; i < 3; i++ { // one miss, two result-cache hits
		if resp, body := postJSON(t, ts.URL+"/v1/plan", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	plan := m.Endpoints["plan"]
	if plan.Count != 3 || plan.Status2xx != 3 {
		t.Errorf("plan endpoint counters: %+v", plan)
	}
	if plan.P50Us <= 0 || plan.P99Us < plan.P50Us {
		t.Errorf("latency quantiles: %+v", plan)
	}
	if m.ResultCache.Hits != 2 || m.ResultCache.Misses == 0 {
		t.Errorf("result cache: %+v", m.ResultCache)
	}
	if m.Sessions.Misses != 1 {
		t.Errorf("sessions: %+v (want exactly one arena build)", m.Sessions)
	}
	// The measurement behind the plan answers must have ridden the
	// steady-state fast path (counters are process-wide, so other tests'
	// runs may inflate them — but never to zero).
	if m.SteadyState.Hits == 0 || m.SteadyState.ExtrapolatedSteps == 0 {
		t.Errorf("steady-state counters empty: %+v", m.SteadyState)
	}

	// The Prometheus rendering carries the same counters.
	promReq, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	promReq.Header.Set("Accept", "text/plain")
	presp, err := http.DefaultClient.Do(promReq)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	prom, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), `ssdtrain_steady_state_runs_total{result="hit"}`) {
		t.Error("Prometheus output misses the steady-state counters")
	}
}

// TestPlanResponseCarriesSteadyState pins the /v1/plan visibility of the
// fast path: the body's steady_state object reports how the measurement
// was produced.
func TestPlanResponseCarriesSteadyState(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := PlanRequest{Model: smallModel(), Strategy: "ssdtrain", Steps: 20}
	resp, body := postJSON(t, ts.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var p PlanResponse
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	ss := p.SteadyState
	if ss.Fallback != "" {
		t.Errorf("plain plan fell back: %q", ss.Fallback)
	}
	if ss.SimulatedSteps == 0 || ss.ExtrapolatedSteps == 0 {
		t.Errorf("steady_state not populated: %+v", ss)
	}
	if ss.SimulatedSteps+ss.ExtrapolatedSteps != 20 {
		t.Errorf("steady_state steps %d+%d, want 20", ss.SimulatedSteps, ss.ExtrapolatedSteps)
	}
}

// smallFleet is a cheap /v1/fleet what-if.
var smallFleet = FleetRequest{
	Nodes:    1,
	Jobs:     4,
	Seed:     7,
	Policies: []string{"fifo", "sjf"},
	MinSteps: 5,
	MaxSteps: 20,
}

// TestFleetEndpoint runs a small what-if through /v1/fleet twice and
// checks the second answer is served from cache on the shared profiler.
func TestFleetEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := smallFleet
	resp, body := postJSON(t, ts.URL+"/v1/fleet", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var fr FleetResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Policies) != 2 || fr.Policies[0].Policy != "fifo" || fr.Policies[1].Policy != "sjf" {
		t.Fatalf("policies: %+v", fr.Policies)
	}
	for _, p := range fr.Policies {
		if p.MakespanNs <= 0 || p.MeanSlowdown < 1 || p.TotalWrittenBytes <= 0 {
			t.Errorf("policy %s: implausible result %+v", p.Policy, p)
		}
		if !strings.Contains(p.Summary, "makespan") {
			t.Errorf("policy %s: summary missing: %q", p.Policy, p.Summary)
		}
	}
	runsBefore := srv.profiler.Runs()
	resp2, body2 := postJSON(t, ts.URL+"/v1/fleet", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	if !bytes.Equal(body, body2) {
		t.Error("identical fleet requests served different bodies")
	}
	if srv.profiler.Runs() != runsBefore {
		t.Error("cached fleet request re-ran profiling measurements")
	}
	if m := srv.Metrics(); m.FleetCache.Hits == 0 {
		t.Errorf("fleet cache hits = 0: %+v", m.FleetCache)
	}
}

// TestFleetRejectsNaNFaults: a NaN in a fault plan compares false
// against every range bound, so the parser must reject it outright
// instead of simulating a death or a steal nobody asked for.
func TestFleetRejectsNaNFaults(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, plan := range []string{"death@wearNaN:node0", "death@30s:node0:dev1,steal=NaN"} {
		req := FleetRequest{Nodes: 2, Jobs: 8, Seed: 1, Policies: []string{"fifo"}, Faults: plan}
		resp, body := postJSON(t, ts.URL+"/v1/fleet", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("faults %q: status %d, want 400 (%s)", plan, resp.StatusCode, body)
		}
	}
}

// rejectedFleetBodies are /v1/fleet bodies that must get a 400.
var rejectedFleetBodies = []string{
	`{"gpus":1000000}`,
	`{"steps_max":-1}`,
	`{"dram_gib":-1}`,
	`{"hybrid_frac":2}`,
	`{"adaptive_profiles":true}`,
	// A spread that overflows time.Duration wrapped negative and was
	// answered with the no-spread makespan.
	`{"nodes":1,"jobs":4,"policies":["fifo"],"submit_spread_ms":9223372036855}`,
	`{"nodes":1,"jobs":4,"policies":["fifo"],"submit_spread_ms":1099511627777}`,
	// A budget that overflows units.Bytes converted to a negative pool,
	// which a node reads as no DRAM.
	`{"nodes":1,"jobs":4,"policies":["fifo"],"dram_gib":1e300}`,
	`{"nodes":1,"jobs":4,"policies":["fifo"],"dram_gib":1048577}`,
}

// TestRequestValidation pins the 4xx surface.
func TestRequestValidation(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain","turbo":true}`, http.StatusBadRequest},
		{"unknown arch", `{"model":{"arch":"rnn","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain"}`, http.StatusBadRequest},
		{"unknown strategy", `{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"teleport"}`, http.StatusBadRequest},
		{"bad geometry", `{"model":{"arch":"bert","hidden":2049,"layers":2,"batch":4},"strategy":"ssdtrain"}`, http.StatusBadRequest},
		{"dead knob", `{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain","split_ratio":0.5}`, http.StatusBadRequest},
		{"removed flat adaptive_steps", `{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain","adaptive_steps":true}`, http.StatusBadRequest},
		{"removed nested adaptive_steps", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"run":{"adaptive_steps":true}}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not structured", tc.name, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

// TestHistogramQuantile pins the log2 estimator's bucketing.
func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for i := 0; i < 99; i++ {
		h.observe(100 * time.Microsecond) // bucket (64, 128] µs
	}
	h.observe(50 * time.Millisecond)
	if q := h.quantile(0.5); q != 128 {
		t.Errorf("p50 = %d µs, want 128", q)
	}
	if q := h.quantile(0.99); q != 128 {
		t.Errorf("p99 = %d µs, want 128", q)
	}
	if q := h.quantile(1); q != 65536 {
		t.Errorf("p100 = %d µs, want 65536 (bucket holding 50ms)", q)
	}
}

// TestSweepPlanNoDeadlock regression-tests a single-worker deadlock: a
// /v1/sweep holds the only worker slot while walking its points, and
// concurrent cold /v1/plan requests for those same configs become
// flight owners waiting for that slot. If a sweep point were to join
// such a flight (as an earlier implementation did), the owner would
// wait for the sweep's slot and the sweep for the owner's result,
// forever. The fix makes slot holders execute directly; this test pins
// that both request kinds complete.
func TestSweepPlanNoDeadlock(t *testing.T) {
	srv := New(Options{Workers: 1, Queue: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	shares := []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := SweepRequest{
				Base:   PlanRequest{Model: smallModel(), Strategy: "ssdtrain"},
				Shares: shares,
			}
			resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("sweep status %d: %s", resp.StatusCode, body)
			}
		}()
		for _, share := range shares {
			wg.Add(1)
			go func(share float64) {
				defer wg.Done()
				req := PlanRequest{Model: smallModel(), Strategy: "ssdtrain", SSDBandwidthShare: share}
				resp, body := postJSON(t, ts.URL+"/v1/plan", req)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("plan share %v: status %d: %s", share, resp.StatusCode, body)
				}
			}(share)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("sweep + concurrent plan requests deadlocked on a single-worker server")
	}
}

// TestHostileKnobsRejected pins the input-hardening surface: negative
// and oversized knobs that once panicked the executor (steps/warmup
// both negative → empty PerStep index panic) or bought unbounded
// simulation time are refused with 400 before any work happens.
func TestHostileKnobsRejected(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	model := `"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4}`
	cases := []struct {
		name string
		body string
	}{
		{"negative steps+warmup (panic regression)", `{` + model + `,"strategy":"ssdtrain","steps":-1,"warmup":-1}`},
		{"negative steps", `{` + model + `,"strategy":"ssdtrain","steps":-1}`},
		{"negative budget", `{` + model + `,"strategy":"ssdtrain","budget_bytes":-1}`},
		{"negative micro batches", `{` + model + `,"strategy":"ssdtrain","micro_batches":-2}`},
		{"oversized steps", `{` + model + `,"strategy":"ssdtrain","steps":100000000}`},
		{"oversized layers", `{"model":{"arch":"bert","hidden":2048,"layers":100000,"batch":4},"strategy":"ssdtrain"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
	for _, body := range rejectedFleetBodies {
		resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("fleet %s: status %d, want 400 (%s)", body, resp.StatusCode, got)
		}
	}
	// The server must still be alive and correct after the barrage.
	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Model: smallModel(), Strategy: "no-offload"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request after hostile barrage: status %d: %s", resp.StatusCode, body)
	}
}

// TestSimulationPanicContained pins the panic boundary: a panic below
// the request-validation layer surfaces as a 422, even when it fires in
// the batcher's drain goroutine (outside net/http's recovery), and the
// process keeps serving. The panic is injected through the same
// recoverBatch seam production uses (runPooled = recoverBatch over
// ExecuteBatch), so the delivery path — drain, flight, handler — is the
// real one end to end.
func TestSimulationPanicContained(t *testing.T) {
	// The executor is swapped before the server starts (goroutine
	// creation is the happens-before edge), never while it serves.
	srv := New(Options{Workers: 2})
	srv.batcher.exec = func(cfgs []exp.RunConfig) []exp.BatchResult {
		return recoverBatch(cfgs, func([]exp.RunConfig) []exp.BatchResult {
			panic("injected simulation panic")
		})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := PlanRequest{Model: smallModel(), Strategy: "recompute"}
	resp, body := postJSON(t, ts.URL+"/v1/plan", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("panicking simulation: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Errorf("panic not surfaced in error body: %s", body)
	}
	// The panicking server must still answer — its process survived the
	// drain-goroutine panic, and validation-level requests never reached
	// the executor at all.
	if resp, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Model: smallModel(), Strategy: "recompute", SplitRatio: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation on panicking server: status %d, want 400", resp.StatusCode)
	}
	// The panicked batch returned its slot and retired its shape, so the
	// next request of that shape gets its own 422 instead of hanging.
	if resp, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Model: smallModel(), Strategy: "recompute", Steps: 3}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("same shape after the panic: status %d, want 422", resp.StatusCode)
	}
	waitFor(t, "batcher and limiter drained after the panics", func() bool {
		srv.batcher.mu.Lock()
		defer srv.batcher.mu.Unlock()
		return len(srv.batcher.waiting) == 0 && len(srv.limiter.slots) == 0 && srv.limiter.waiting() == 0
	})
}
