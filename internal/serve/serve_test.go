package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "no-offload"}}},
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "recompute"}}},
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "ssdtrain"}}},
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "ssdtrain"}, Inject: InjectRequest{SSDBandwidthShare: 0.5}}},
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "cpu-offload"}}},
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "cpu-offload", DRAMCapacityBytes: 1 << 31}}},
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "hybrid", DRAMCapacityBytes: 256 << 20}}},
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "hybrid", Placement: "ssd-only", DRAMCapacityBytes: 256 << 20}}},
		{Spec: SpecRequest{Model: m, Offload: OffloadRequest{Strategy: "hybrid", Placement: "split", SplitRatio: 0.5, DRAMCapacityBytes: 256 << 20}}},
	}
}

// freshBody renders the request the reference way: a fresh Plan.Execute
// on a single-use arena, no pool, no cache.
func freshBody(t *testing.T, req PlanRequest) []byte {
	t.Helper()
	cfg, err := req.RunConfig()
	if err != nil {
		t.Fatalf("RunConfig(%+v): %v", req, err)
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

// postJSON posts body as JSON and returns the response and its body.
// Tests call it from goroutines of their own too, so a failure is
// reported with t.Error, never t.Fatal, and returns a response with
// status 0, which no caller accepts.
func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return &http.Response{}, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return &http.Response{}, nil
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Errorf("POST %s: reading the body: %v", url, err)
		return &http.Response{}, nil
	}
	return resp, got
}

// TestPlanByteIdentityConcurrent is the concurrent-correctness pin: N
// goroutines hammer /v1/plan with identical and with distinct configs —
// every strategy × placement — against a server deliberately configured
// for churn (result cache far smaller than the working set, a
// single-arena session pool that evicts on every cross-shape release,
// same-shape requests waiting behind each other), interleaved with
// requests that error mid-simulation on the same arenas. Every 200 body
// must be byte-identical to rendering a fresh Plan.Execute. Run under
// -race this is also the proof that the cache/arena layers are safe to
// share.
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
	overflow := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "cpu-offload", DRAMCapacityBytes: 1 << 20, BudgetBytes: 1 << 30}}}
	// Invalid config: rejected at validation (400), never executed.
	invalid := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain", SplitRatio: 0.5}}}

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
		Base:   PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}}},
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
		point := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}, Inject: InjectRequest{SSDBandwidthShare: share}}}
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

	warm := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "no-offload"}}}
	if resp, body := postJSON(t, ts.URL+"/v1/plan", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, body)
	}

	if !srv.limiter.acquire(t.Context()) {
		t.Fatal("could not take the only worker slot")
	}
	defer srv.limiter.release()

	cold := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "recompute"}}}
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

// holdFirstRun swaps in an executor that holds the server's first
// simulation until release is called; running is closed once it is
// held. release is idempotent, so a test can also defer it to free the
// held request before its server closes. The executor is swapped before
// the server starts (goroutine creation is the happens-before edge),
// never while it serves.
func holdFirstRun(srv *Server) (running <-chan struct{}, release func()) {
	held, free := make(chan struct{}), make(chan struct{})
	var runs atomic.Int32
	srv.exec = func(cfg exp.RunConfig) (*exp.RunResult, error) {
		if runs.Add(1) == 1 {
			close(held)
			<-free
		}
		return srv.sessions.Execute(cfg)
	}
	return held, sync.OnceFunc(func() { close(free) })
}

// shareRequests returns same-shape plan requests that differ only in
// their SSD bandwidth share.
func shareRequests(shares ...float64) []PlanRequest {
	reqs := make([]PlanRequest, len(shares))
	for i, share := range shares {
		reqs[i] = PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}, Inject: InjectRequest{SSDBandwidthShare: share}}}
	}
	return reqs
}

// TestWaitLineBackpressure: a request waiting for a worker slot holds a
// place in the wait line. With the only worker slot running a request
// and the one wait-line place taken by a second, a third request of the
// same shape is refused with 429 and Retry-After; once the slot frees,
// the admitted requests complete.
func TestWaitLineBackpressure(t *testing.T) {
	// The deadline turns a request that waits instead of being refused
	// into a 503 rather than a hang.
	srv := New(Options{Workers: 1, Queue: 1, RequestTimeout: 10 * time.Second})
	running, release := holdFirstRun(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	reqs := shareRequests(0.2, 0.4, 0.6)
	codes := make(chan int, 2)
	post := func(req PlanRequest) {
		resp, _ := postJSON(t, ts.URL+"/v1/plan", req)
		codes <- resp.StatusCode
	}
	go post(reqs[0])
	<-running
	go post(reqs[1])
	waitFor(t, "the second request holds the wait line", func() bool {
		return srv.limiter.waiting() == 1
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

// TestAdmissionBound pins the -queue bound as exact: the server never
// admits more than workers + queue requests, whatever shape they share.
// With one worker and two wait-line places, one run holds the slot, two
// same-shape misses wait and a fourth is refused. Once the run ends, one
// waiting miss takes the slot and the other keeps its place, so of two
// more misses exactly one is admitted.
func TestAdmissionBound(t *testing.T) {
	// The deadline turns a request that waits instead of being refused
	// into a 503 rather than a hang.
	srv := New(Options{Workers: 1, Queue: 2, RequestTimeout: 10 * time.Second})
	started, proceed := make(chan struct{}, 8), make(chan struct{})
	srv.exec = func(cfg exp.RunConfig) (*exp.RunResult, error) {
		started <- struct{}{}
		<-proceed
		return srv.sessions.Execute(cfg)
	}
	releaseAll := sync.OnceFunc(func() { close(proceed) })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer releaseAll()

	reqs := shareRequests(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
	codes := make(chan int, len(reqs))
	post := func(req PlanRequest) {
		go func() {
			resp, _ := postJSON(t, ts.URL+"/v1/plan", req)
			codes <- resp.StatusCode
		}()
	}
	post(reqs[0])
	<-started
	post(reqs[1])
	post(reqs[2])
	waitFor(t, "two misses hold both wait-line places", func() bool {
		return srv.limiter.waiting() == 2
	})
	if resp, body := postJSON(t, ts.URL+"/v1/plan", reqs[3]); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("miss past a full wait line: status %d: %s", resp.StatusCode, body)
	}

	proceed <- struct{}{}
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("released run: status %d", code)
	}
	<-started
	waitFor(t, "one miss runs and the other keeps its place", func() bool {
		return srv.limiter.waiting() == 1
	})
	post(reqs[4])
	post(reqs[5])
	if code := <-codes; code != http.StatusTooManyRequests {
		t.Fatalf("two misses for one free wait-line place: first answer %d, want 429", code)
	}
	releaseAll()
	for range 3 {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("admitted miss: status %d", code)
		}
	}
	if got := srv.Metrics().RejectedRequests; got != 2 {
		t.Errorf("rejected %d requests, want 2", got)
	}
}

// TestSameShapeUsesEveryWorker: a request that arrives while a run of
// its shape holds one worker slot runs on another free slot, so one
// shape's traffic is not held to one worker.
func TestSameShapeUsesEveryWorker(t *testing.T) {
	// The deadline turns a request that waits for the held run into a
	// 503 rather than a hang.
	srv := New(Options{Workers: 2, RequestTimeout: 10 * time.Second})
	running, release := holdFirstRun(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	reqs := shareRequests(0.2, 0.4)
	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/plan", reqs[0])
		first <- resp.StatusCode
	}()
	<-running
	if resp, body := postJSON(t, ts.URL+"/v1/plan", reqs[1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("same-shape request beside a held run: status %d: %s", resp.StatusCode, body)
	}
	release()
	if code := <-first; code != http.StatusOK {
		t.Errorf("held request: status %d", code)
	}
}

// TestPlanStress runs concurrent clients over several plan shapes, each
// asking distinct cheap-knob variants in its own order, so same-shape
// misses wait for and recycle each other's arenas while other shapes
// run. Every body must be byte-identical to rendering a fresh exp.Run,
// and once the clients are done the limiter must be back at zero.
func TestPlanStress(t *testing.T) {
	var reqs []PlanRequest
	for _, base := range []PlanRequest{
		{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}}},
		{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "hybrid", DRAMCapacityBytes: 256 << 20}}},
		{Spec: SpecRequest{Model: ModelSpec{Arch: "gpt", Hidden: 2048, Layers: 2, Batch: 4}, Offload: OffloadRequest{Strategy: "ssdtrain"}}},
	} {
		for _, share := range []float64{0.3, 0.5, 0.7, 0.9} {
			r := base
			r.Spec.Inject.SSDBandwidthShare = share
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

	// A one-body result cache sends nearly every request to the pool.
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
	waitFor(t, "limiter drained", func() bool {
		return len(srv.limiter.slots) == 0 && srv.limiter.waiting() == 0
	})
	m := srv.Metrics()
	runs := m.Sessions.Hits + m.Sessions.Misses
	if runs == 0 {
		t.Error("no request reached the session pool")
	}
	if m.Batch.Flushes != runs || m.Batch.BatchedRequests != runs {
		t.Errorf("batch = %+v, want every one of the %d pooled runs counted as a batch of one", m.Batch, runs)
	}
}

// TestMetricsEndpoint checks the snapshot parses and the counters move.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}}}
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

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}, Run: RunRequest{Steps: 20}}}
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

// rejectedPlanBodies are /v1/plan bodies the service must answer 400:
// malformed and flat bodies, unknown fields and values, and hostile
// knobs. FuzzPlanRequest starts from them.
var rejectedPlanBodies = []struct{ name, body string }{
	{"bad json", `{`},
	{"flat body", `{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain"}`},
	{"no spec", `{}`},
	{"empty spec", `{"spec":{}}`},
	{"unknown field", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain","turbo":true}}}`},
	{"unknown arch", `{"spec":{"model":{"arch":"rnn","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"}}}`},
	{"unknown strategy", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"teleport"}}}`},
	{"bad geometry", `{"spec":{"model":{"arch":"bert","hidden":2049,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"}}}`},
	{"dead knob", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain","split_ratio":0.5}}}`},
	{"optimizer against strategy", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"optimizer":{"offload":true}}}`},
	{"removed adaptive_steps", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"run":{"adaptive_steps":true}}}`},
	{"negative steps+warmup (panic regression)", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"run":{"steps":-1,"warmup":-1}}}`},
	{"negative steps", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"run":{"steps":-1}}}`},
	{"negative budget", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain","budget_bytes":-1}}}`},
	{"negative micro batches", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"run":{"micro_batches":-2}}}`},
	{"oversized steps", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"run":{"steps":100000000}}}`},
	{"oversized layers", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":100000,"batch":4},"offload":{"strategy":"ssdtrain"}}}`},
}

// TestRequestValidation pins the 4xx surface.
func TestRequestValidation(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range rejectedPlanBodies {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not structured", tc.name, body)
		}
	}
	// A body in any form but {"spec": ...} is a 400 that names the spec
	// form: the flat form the service once took, an empty body, and a
	// flat sweep base.
	for _, tc := range []struct{ path, body string }{
		{"/v1/plan", `{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain"}`},
		{"/v1/plan", `{}`},
		{"/v1/trace", `{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain"}`},
		{"/v1/sweep", `{"base":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain"},"shares":[0.5]}`},
		{"/v1/sweep", `{"base":{},"shares":[0.5]}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `{\"spec\":`) {
			t.Errorf("%s %s: status %d, body %s; want a 400 naming the spec form", tc.path, tc.body, resp.StatusCode, body)
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

// cornerPlanBodies sit on both sides of the bounds that keep an accepted
// question representable: the activation volume of a step and the
// smallest nonzero bandwidth share.
var cornerPlanBodies = []struct {
	name, body string
	want       int
}{
	{"gpt past the activation bound", `{"spec":{"model":{"arch":"gpt","hidden":262144,"layers":2,"batch":65536,"seq_len":1048576},"offload":{"strategy":"ssdtrain"}}}`, http.StatusBadRequest},
	{"bert past the activation bound", `{"spec":{"model":{"arch":"bert","hidden":262144,"layers":512,"batch":65536,"seq_len":1048576},"offload":{"strategy":"ssdtrain"}}}`, http.StatusBadRequest},
	{"share below the floor", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain","budget_bytes":67108864,"keep_last_modules":-1},"inject":{"ssd_bandwidth_share":1e-12}}}`, http.StatusBadRequest},
	{"share at the floor", `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain","budget_bytes":67108864,"keep_last_modules":-1},"inject":{"ssd_bandwidth_share":1e-6}}}`, http.StatusOK},
	{"gpt under the activation bound", `{"spec":{"model":{"arch":"gpt","hidden":131072,"layers":2,"batch":16,"seq_len":8192},"offload":{"strategy":"ssdtrain"}}}`, http.StatusOK},
}

// TestUnrepresentableBodiesRejected posts bodies inside every service cap
// that the simulator cannot represent: models whose activations pass the
// int64 headroom (the GPT body answered 200 with a wrapped budget, the
// BERT one panicked the allocator) and a bandwidth share so thin that a
// step outlasts a time.Duration. Each is a 400. Bodies just inside the
// bounds answer 200 with no negative field.
func TestUnrepresentableBodiesRejected(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range cornerPlanBodies {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
			continue
		}
		if tc.want != http.StatusOK {
			continue
		}
		var pr PlanResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		v := reflect.ValueOf(pr)
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() == reflect.Int64 && f.Int() < 0 {
				t.Errorf("%s: %s = %d", tc.name, v.Type().Field(i).Name, f.Int())
			}
		}
		if pr.StepTimeNs <= 0 {
			t.Errorf("%s: step time %d ns", tc.name, pr.StepTimeNs)
		}
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
				Base:   PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}}},
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
				req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}, Inject: InjectRequest{SSDBandwidthShare: share}}}
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

	for _, tc := range rejectedPlanBodies {
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
	resp, body := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "no-offload"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request after hostile barrage: status %d: %s", resp.StatusCode, body)
	}
}

// TestSimulationPanicContained pins the panic boundary: a panic below
// the request-validation layer surfaces as a 422 and the process keeps
// serving. The panic is injected through the executor runPooled calls,
// inside its recovery, so the delivery path — slot, flight, handler — is
// the real one end to end.
func TestSimulationPanicContained(t *testing.T) {
	// The executor is swapped before the server starts (goroutine
	// creation is the happens-before edge), never while it serves.
	srv := New(Options{Workers: 2})
	srv.exec = func(exp.RunConfig) (*exp.RunResult, error) {
		panic("injected simulation panic")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "recompute"}}}
	resp, body := postJSON(t, ts.URL+"/v1/plan", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("panicking simulation: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Errorf("panic not surfaced in error body: %s", body)
	}
	// The panicking server must still answer — its process survived the
	// panic, and validation-level requests never reached the executor at
	// all.
	if resp, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "recompute", SplitRatio: 1}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation on panicking server: status %d, want 400", resp.StatusCode)
	}
	// The panicked run returned its slot, so the next request of that
	// shape gets its own 422 instead of hanging.
	if resp, _ := postJSON(t, ts.URL+"/v1/plan", PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "recompute"}, Run: RunRequest{Steps: 3}}}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("same shape after the panic: status %d, want 422", resp.StatusCode)
	}
	waitFor(t, "limiter drained after the panics", func() bool {
		return len(srv.limiter.slots) == 0 && srv.limiter.waiting() == 0
	})
}
