package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/serve"
)

// The chaos drill is the cluster's merge gate: it stands up a real
// sharded cluster in one process (real sockets, real routing), kills a
// replica under load, restarts it cold, then takes the whole cluster
// away — and fails unless the router's resilience machinery demonstrably
// carried the traffic:
//
//   - zero 5xx through the kill and the restart,
//   - every 200 body byte-identical to a fresh Plan.Execute render,
//   - at least one hedge fired (the tail-latency path is live),
//   - the restarted replica filled at least one cache entry from a peer
//     instead of re-simulating,
//   - total outage answers from the stale cache, labeled, not with 5xx.
//
// Determinism is what makes the gate sharp: because every body is a pure
// function of its config, "failover worked" is not a vibe, it is
// bytes.Equal against a reference render.

// DrillOptions tunes the chaos drill. The zero value is the CI
// configuration.
type DrillOptions struct {
	// Replicas is the cluster size (0 = 3, minimum 2).
	Replicas int
	// Shapes is how many distinct plan shapes the load spreads over
	// (0 = 12).
	Shapes int
	// LoadWorkers is the client concurrency during the kill wave (0 = 4).
	LoadWorkers int
	// WaveDuration is how long the kill wave hammers the cluster (0 = 2s);
	// the victim dies KillOffset into it (0 = WaveDuration/4).
	WaveDuration time.Duration
	KillOffset   time.Duration
}

func (o DrillOptions) withDefaults() DrillOptions {
	if o.Replicas == 0 {
		o.Replicas = 3
	}
	if o.Replicas < 2 {
		o.Replicas = 2
	}
	if o.Shapes <= 0 {
		o.Shapes = 12
	}
	if o.LoadWorkers <= 0 {
		o.LoadWorkers = 4
	}
	if o.WaveDuration <= 0 {
		o.WaveDuration = 2 * time.Second
	}
	if o.KillOffset <= 0 {
		o.KillOffset = o.WaveDuration / 4
	}
	return o
}

// DrillReport is the drill's measured outcome — the chaos record
// EXPERIMENTS.md captures.
type DrillReport struct {
	Replicas int `json:"replicas"`
	Shapes   int `json:"shapes"`
	// Wave traffic: total requests pushed through the router during the
	// kill wave, the aggregate request rate across the cluster, and the
	// p99 latency of requests issued after the kill.
	WaveRequests     int64   `json:"wave_requests"`
	AggregateReqPerS float64 `json:"aggregate_req_per_s"`
	P99DuringKillUs  int64   `json:"p99_during_kill_us"`
	Errors5xx        int64   `json:"errors_5xx"`
	BodyMismatches   int64   `json:"body_mismatches"`
	// Failover machinery activity.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	Retries   int64 `json:"retries"`
	// RecoveryMs is the time from the victim's restart to its
	// readmission into the ring.
	RecoveryMs int64 `json:"recovery_ms"`
	// Peer cache-fill outcome at the restarted replica.
	PeerFills       int64   `json:"peer_fills"`
	PeerFillHitRate float64 `json:"peer_fill_hit_rate"`
	// Stale-serve outcome under total outage.
	StaleServed  int64 `json:"stale_served"`
	RingRebuilds int64 `json:"ring_rebuilds"`
}

// replicaProc is one in-process replica: a serve.Server behind a real
// loopback listener, restartable on its original port.
type replicaProc struct {
	id    string
	peers []string
	addr  string

	mu sync.Mutex
	sv *serve.Server
	hs *http.Server
	ln net.Listener
}

func (p *replicaProc) url() string { return "http://" + p.addr }

// bind claims the replica's port (its original one on a restart)
// without serving yet — peer URLs exist before any server does.
func (p *replicaProc) bind() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: replica %s listen: %w", p.id, err)
	}
	p.addr = ln.Addr().String()
	p.ln = ln
	return nil
}

// start boots a fresh (cold) serve.Server on the replica's port.
func (p *replicaProc) start() error {
	p.mu.Lock()
	if p.ln == nil {
		p.mu.Unlock()
		if err := p.bind(); err != nil {
			return err
		}
		p.mu.Lock()
	}
	p.sv = serve.New(serve.Options{ReplicaID: p.id, Peers: p.peers})
	p.hs = &http.Server{Handler: p.sv.Handler()}
	go p.hs.Serve(p.ln)
	p.mu.Unlock()
	return nil
}

// stop kills the replica abruptly: listener and in-flight connections
// both die, the way a crashed process looks from the outside.
func (p *replicaProc) stop() {
	p.mu.Lock()
	hs := p.hs
	p.hs = nil
	p.ln = nil
	p.mu.Unlock()
	if hs != nil {
		hs.Close()
	}
}

func (p *replicaProc) server() *serve.Server {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sv
}

// drillModel is the drill's base model: small enough that a cold
// simulation is milliseconds, real enough to exercise offload traffic.
func drillModel() serve.ModelSpec {
	return serve.ModelSpec{Arch: string(models.BERT), Hidden: 2048, Layers: 2, Batch: 4}
}

// drillShape is one distinct plan shape in the drill's working set.
type drillShape struct {
	req   serve.PlanRequest
	blob  []byte // marshaled request body
	cfg   exp.RunConfig
	shape uint64
	owner int    // ring owner under full membership
	want  []byte // reference render: fresh Plan.Execute, no caches
}

// buildShapes generates n distinct plan shapes (micro-batch count is
// part of the plan shape) and computes each one's ring owner and
// reference body.
func buildShapes(n int, ring *Ring) ([]drillShape, error) {
	out := make([]drillShape, 0, n)
	for i := 1; i <= n; i++ {
		req := serve.PlanRequest{Spec: serve.SpecRequest{
			Model:   drillModel(),
			Offload: serve.OffloadRequest{Strategy: "ssdtrain"},
			Run:     serve.RunRequest{MicroBatches: i},
		}}
		blob, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		cfg, err := req.RunConfig()
		if err != nil {
			return nil, err
		}
		shape, err := exp.ShapeHash(cfg)
		if err != nil {
			return nil, err
		}
		plan, err := exp.Compile(cfg)
		if err != nil {
			return nil, err
		}
		res, err := plan.Execute(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, drillShape{
			req: req, blob: blob, cfg: cfg, shape: shape,
			owner: ring.Owner(shape), want: serve.RenderPlanResult(res),
		})
	}
	return out, nil
}

// obs is one observed request during a wave.
type obs struct {
	shape   int
	status  int
	latency time.Duration
	match   bool
	at      time.Time
}

// RunDrill executes the chaos drill and writes a human log plus the
// JSON report to w. It returns the report, and an error when any gate
// failed.
func RunDrill(w io.Writer, opts DrillOptions) (*DrillReport, error) {
	opts = opts.withDefaults()
	logf := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

	// Boot the replicas. Peer lists are symmetric: everyone can fill
	// from everyone else.
	procs := make([]*replicaProc, opts.Replicas)
	for i := range procs {
		procs[i] = &replicaProc{id: fmt.Sprintf("r%d", i)}
	}
	// Addresses exist only after the first listen, so bind every port
	// first, then wire the (now known) peer URLs, then serve.
	for _, p := range procs {
		if err := p.bind(); err != nil {
			return nil, err
		}
	}
	for i, p := range procs {
		for j, q := range procs {
			if i != j {
				p.peers = append(p.peers, q.url())
			}
		}
	}
	for _, p := range procs {
		if err := p.start(); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()

	replicas := make([]Replica, opts.Replicas)
	for i, p := range procs {
		replicas[i] = Replica{ID: p.id, URL: p.url()}
	}
	rt, err := NewRouter(Options{
		Replicas:       replicas,
		AttemptTimeout: 10 * time.Second,
		MaxAttempts:    3,
		// A 1ms hedge delay sits below a cold simulation (milliseconds)
		// and above a warm cache hit (microseconds): hedges provably fire
		// during the drill without doubling every cached request.
		HedgeDelay: time.Millisecond,
		Backoff:    Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
		// The drill's gate is zero 5xx, so the budget must never be the
		// reason a retry was withheld.
		RetryBudgetRatio: 1,
		RetryBudgetCap:   1 << 20,
		Probe: ProbeOptions{
			Interval:         20 * time.Millisecond,
			Timeout:          250 * time.Millisecond,
			FailThreshold:    2,
			SuccessThreshold: 2,
		},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rhs := &http.Server{Handler: rt.Handler()}
	go rhs.Serve(rln)
	defer rhs.Close()
	routerURL := "http://" + rln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	shapes, err := buildShapes(opts.Shapes, rt.fullRing)
	if err != nil {
		return nil, err
	}
	// The victim is the replica owning the most shapes: killing it moves
	// the largest share of the key space, and its restart is guaranteed
	// cold shards to peer-fill.
	owned := make([]int, opts.Replicas)
	for _, s := range shapes {
		owned[s.owner]++
	}
	victim := 0
	for i, n := range owned {
		if n > owned[victim] {
			victim = i
		}
	}
	logf("drill: %d replicas, %d shapes (victim %s owns %d)", opts.Replicas, len(shapes), procs[victim].id, owned[victim])

	report := &DrillReport{Replicas: opts.Replicas, Shapes: len(shapes)}
	post := func(i int) obs {
		start := time.Now()
		resp, err := client.Post(routerURL+"/v1/plan", "application/json", bytes.NewReader(shapes[i].blob))
		o := obs{shape: i, at: start, latency: time.Since(start)}
		if err != nil {
			o.status = 599 // client-side failure counts as an error
			return o
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		o.latency = time.Since(start)
		o.status = resp.StatusCode
		o.match = rerr == nil && bytes.Equal(body, shapes[i].want)
		return o
	}

	// Phase 1 — warm: every shape once, cold caches. The sub-hedge-delay
	// simulations make the hedge path fire here.
	logf("drill: phase 1 — warm %d shapes through the router", len(shapes))
	for i := range shapes {
		o := post(i)
		if o.status != http.StatusOK {
			return report, fmt.Errorf("cluster drill: warm request for shape %d answered %d", i, o.status)
		}
		if !o.match {
			report.BodyMismatches++
		}
	}

	// Phase 2 — kill wave: sustained load, victim dies mid-wave.
	logf("drill: phase 2 — %v load wave, killing %s at +%v", opts.WaveDuration, procs[victim].id, opts.KillOffset)
	var (
		obsMu  sync.Mutex
		all    []obs
		wg     sync.WaitGroup
		stopAt = time.Now().Add(opts.WaveDuration)
	)
	killAt := time.Now().Add(opts.KillOffset)
	killer := time.AfterFunc(opts.KillOffset, func() { procs[victim].stop() })
	defer killer.Stop()
	for g := 0; g < opts.LoadWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(stopAt); i++ {
				o := post(i % len(shapes))
				obsMu.Lock()
				all = append(all, o)
				obsMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	waveDur := opts.WaveDuration
	report.WaveRequests = int64(len(all))
	report.AggregateReqPerS = float64(len(all)) / waveDur.Seconds()
	var afterKill []int64
	for _, o := range all {
		if o.status >= 500 {
			report.Errors5xx++
		} else if o.status == http.StatusOK && !o.match {
			report.BodyMismatches++
		}
		if o.at.After(killAt) {
			afterKill = append(afterKill, o.latency.Microseconds())
		}
	}
	if len(afterKill) > 0 {
		sort.Slice(afterKill, func(a, b int) bool { return afterKill[a] < afterKill[b] })
		report.P99DuringKillUs = afterKill[len(afterKill)*99/100]
	}
	logf("drill: wave done — %d requests (%.0f req/s), %d 5xx, p99 after kill %dus",
		report.WaveRequests, report.AggregateReqPerS, report.Errors5xx, report.P99DuringKillUs)

	// Phase 3 — restart the victim cold and wait for readmission.
	logf("drill: phase 3 — restarting %s cold", procs[victim].id)
	restartAt := time.Now()
	if err := procs[victim].start(); err != nil {
		return report, err
	}
	for {
		m := rt.Metrics()
		if m.Replicas[victim].Healthy {
			break
		}
		if time.Since(restartAt) > 10*time.Second {
			return report, fmt.Errorf("cluster drill: %s not readmitted within 10s", procs[victim].id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	report.RecoveryMs = time.Since(restartAt).Milliseconds()

	// The readmitted victim owns its shapes again but its cache is
	// empty; these requests must peer-fill from the survivors, not
	// re-simulate.
	for i, s := range shapes {
		if s.owner != victim {
			continue
		}
		o := post(i)
		if o.status >= 500 {
			report.Errors5xx++
		}
		if o.status == http.StatusOK && !o.match {
			report.BodyMismatches++
		}
	}
	vm := procs[victim].server().Metrics()
	report.PeerFills = vm.PeerFill.Filled
	if total := vm.PeerFill.Filled + vm.PeerFill.Misses; total > 0 {
		report.PeerFillHitRate = float64(vm.PeerFill.Filled) / float64(total)
	}
	logf("drill: recovery %dms, %d peer fills at the restarted replica (hit rate %.2f)",
		report.RecoveryMs, report.PeerFills, report.PeerFillHitRate)

	// Phase 4 — total outage: every replica dies; a previously answered
	// question must still answer 200 from the stale cache, labeled.
	logf("drill: phase 4 — stopping every replica, expecting a labeled stale 200")
	for _, p := range procs {
		p.stop()
	}
	staleStart := time.Now()
	var staleResp *http.Response
	var staleBody []byte
	staleResp, err = client.Post(routerURL+"/v1/plan", "application/json", bytes.NewReader(shapes[0].blob))
	if err != nil {
		return report, fmt.Errorf("cluster drill: stale-phase request failed: %w", err)
	}
	staleBody, _ = io.ReadAll(staleResp.Body)
	staleResp.Body.Close()
	logf("drill: stale answer %d in %v (%s: %s)", staleResp.StatusCode, time.Since(staleStart).Round(time.Millisecond),
		serve.HeaderStale, staleResp.Header.Get(serve.HeaderStale))

	rm := rt.Metrics()
	report.Hedges = rm.Hedges
	report.HedgeWins = rm.HedgeWins
	report.Retries = rm.Retries
	report.StaleServed = rm.StaleServed
	report.RingRebuilds = rm.RingRebuilds

	// The gates.
	var fails []string
	if report.Errors5xx > 0 {
		fails = append(fails, fmt.Sprintf("%d 5xx responses", report.Errors5xx))
	}
	if report.BodyMismatches > 0 {
		fails = append(fails, fmt.Sprintf("%d bodies not byte-identical to a fresh render", report.BodyMismatches))
	}
	if report.Hedges == 0 {
		fails = append(fails, "no hedge ever fired")
	}
	if report.PeerFills == 0 {
		fails = append(fails, "the restarted replica never peer-filled")
	}
	if staleResp.StatusCode != http.StatusOK {
		fails = append(fails, fmt.Sprintf("total outage answered %d, want a stale 200", staleResp.StatusCode))
	} else if staleResp.Header.Get(serve.HeaderStale) != "true" {
		fails = append(fails, "stale answer not labeled with "+serve.HeaderStale)
	} else if !bytes.Equal(staleBody, shapes[0].want) {
		fails = append(fails, "stale body not byte-identical to the fresh render")
	}
	if report.StaleServed == 0 {
		fails = append(fails, "router counted no stale serves")
	}

	blob, _ := json.MarshalIndent(report, "", "  ")
	fmt.Fprintf(w, "%s\n", blob)
	if len(fails) > 0 {
		return report, fmt.Errorf("cluster drill failed: %s", joinFails(fails))
	}
	logf("drill: PASS")
	return report, nil
}

func joinFails(fails []string) string {
	out := fails[0]
	for _, f := range fails[1:] {
		out += "; " + f
	}
	return out
}
