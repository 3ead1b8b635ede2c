package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/serve"
	"ssdtrain/internal/units"
)

// Request classes of the serve workload, in outcome.class.
const (
	classHit  = iota // one repeat from the hot set: answered from the result cache
	classMiss        // a concurrent pair of cheap-knob misses on one warm shape
	classNew         // one shape never seen before: exp.Compile → models.BuildCached → planner
)

// The stream is made of blocks of blockLen operations holding exactly
// blockNew first-seen shapes, blockPairs pairs of distinct misses,
// blockDups pairs of one miss asked twice, and hot-set hits for the rest,
// in a seeded order, so every seed runs the same mix. NOTES.md gives the
// basis of these proportions.
const (
	blockLen   = 100
	blockNew   = 5
	blockPairs = 45
	blockDups  = 10
)

// Every serve request measures serveSteps steps after serveWarmup.
const (
	serveSteps  = 4
	serveWarmup = 2
)

// planReq is one /v1/plan question.
type planReq struct {
	class    int
	model    serve.ModelSpec
	strategy string
	dram     int64
	budget   int64
	share    float64
}

// body renders the request as a nested (schema v2) /v1/plan body. It
// formats by hand so that encoding/json time in the profile is the
// server's.
func (r planReq) body() []byte {
	b := fmt.Appendf(nil, `{"spec":{"model":{"arch":%q,"hidden":%d,"layers":%d,"batch":%d`,
		r.model.Arch, r.model.Hidden, r.model.Layers, r.model.Batch)
	if r.model.SeqLen > 0 {
		b = fmt.Appendf(b, `,"seq_len":%d`, r.model.SeqLen)
	}
	b = fmt.Appendf(b, `},"offload":{"strategy":%q`, r.strategy)
	if r.dram > 0 {
		b = fmt.Appendf(b, `,"dram_capacity_bytes":%d`, r.dram)
	}
	if r.budget > 0 {
		b = fmt.Appendf(b, `,"budget_bytes":%d`, r.budget)
	}
	b = fmt.Appendf(b, `},"run":{"steps":%d,"warmup":%d}`, serveSteps, serveWarmup)
	if r.share > 0 {
		b = fmt.Appendf(b, `,"inject":{"ssd_bandwidth_share":%v}`, r.share)
	}
	return append(b, "}}"...)
}

// sent is one request sent and the hash of the body it got.
type sent struct {
	req  planReq
	hash uint64
}

// checkPerClass is how many requests of each class the answer check
// re-asks.
const checkPerClass = 2

// reservoir keeps a seeded uniform sample of checkPerClass requests of
// one class, however many were sent, so the benchmark's own memory does
// not grow with throughput.
type reservoir struct {
	seen int
	kept [checkPerClass]sent
}

func (r *reservoir) add(rng *rand.Rand, s sent) {
	if r.seen < len(r.kept) {
		r.kept[r.seen] = s
	} else if j := rng.IntN(r.seen + 1); j < len(r.kept) {
		r.kept[j] = s
	}
	r.seen++
}

// stream is the seeded operation sequence of the serve workload.
type stream struct {
	rng *rand.Rand
	// block holds the kinds of the rest of the current block.
	block []int
	// misses and news count the miss requests and first-seen shapes
	// drawn, the source of their uniqueness.
	misses, news int
}

// Operation kinds of a block.
const (
	kindHit = iota
	kindNew
	kindPair // two distinct never-asked variants of one warm shape at once: one batch of two
	kindDup  // one never-asked variant asked twice at once: one simulation, one singleflight join
)

func newStream(seed uint64) *stream { return &stream{rng: rand.New(rand.NewPCG(seed, 0x5e4e5))} }

// op is one operation of the stream: one request, or two sent at once.
type op struct {
	class int
	reqs  []planReq
	// hot is a hit's hot-set index, -1 for the other classes.
	hot int
}

// serveWorkload is the service path: /v1/plan over loopback HTTP
// (httptest, in-process) against one serve.Server with its default
// options, from one closed-loop stream. It mixes repeats from a hot set
// (result-cache reads), pairs of concurrent cheap-knob variants of warm
// shapes never asked before (result-cache writes through the session
// pool, the batcher and the singleflight) and a small share of
// first-seen shapes (exp.Compile → models.BuildCached → planner).
type serveWorkload struct {
	seed    uint64
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	hot     []planReq
	hotBody [][]byte
	hotHash []uint64
	st      *stream
	// sample is, per class, the requests the answer check re-asks.
	sample    [maxClasses]reservoir
	sampleRng *rand.Rand
	// ref is the first warm shape's config, the model.* reference.
	ref exp.RunConfig
	// permA and permB permute the first-seen shapes' geometries.
	permA, permB uint64
}

func newServe(seed uint64) *serveWorkload {
	w := &serveWorkload{seed: seed, st: newStream(seed), sampleRng: rand.New(rand.NewPCG(seed, 0xc4ec))}
	rng := rand.New(rand.NewPCG(seed, 0x5e4e))
	w.permB = rng.Uint64N(newGeomSpace)
	for {
		// Any multiplier coprime to the space size makes i ↦ a·i+b a
		// permutation of it.
		w.permA = 1 + rng.Uint64N(newGeomSpace-1)
		if gcd(w.permA, newGeomSpace) == 1 {
			break
		}
	}
	w.hot = hotSet()
	return w
}

// warmShapes are the shapes the hot set and the cheap-knob misses use,
// compiled during setup.
func warmShapes() []planReq {
	var out []planReq
	for _, arch := range []models.Arch{models.GPT, models.BERT, models.T5} {
		out = append(out,
			planReq{model: serve.ModelSpec{Arch: string(arch), Hidden: 4096, Layers: 2, Batch: 4}, strategy: string(exp.SSDTrain)},
			planReq{model: serve.ModelSpec{Arch: string(arch), Hidden: 2048, Layers: 4, Batch: 8}, strategy: string(exp.HybridOffload), dram: int64(2 * units.GiB)},
		)
	}
	return out
}

// hotSet is the fixed set of repeated questions: each warm shape at
// four cheap-knob settings.
func hotSet() []planReq {
	var out []planReq
	for _, w := range warmShapes() {
		for _, share := range []float64{0, 0.5} {
			for _, budget := range []int64{0, int64(512 * units.MiB)} {
				r := w
				r.share, r.budget = share, budget
				out = append(out, r)
			}
		}
	}
	return out
}

// newShapeSpace is the number of distinct first-seen shapes newShape
// can produce: 12 (arch, layers) pairs × 16 hiddens × 8 batches × 15
// sequence lengths.
const newShapeSpace = 12 * newGeomSpace

// newGeomSpace is the number of (hidden, batch, sequence) geometries.
const newGeomSpace = 16 * 8 * 15

// newShape returns the u-th first-seen shape. The (arch, layers) pair,
// which sets the simulation's cost, cycles with u; the geometry is a
// seeded permutation of u, so shapes never repeat below newShapeSpace.
func (w *serveWorkload) newShape(u uint64) serve.ModelSpec {
	archs := []models.Arch{models.GPT, models.BERT, models.T5}
	m := serve.ModelSpec{Arch: string(archs[u%3]), Layers: 2 + int(u/3%4)}
	g := (w.permA*(u/12) + w.permB) % newGeomSpace
	m.Hidden = 1024 + 256*int(g%16)
	g /= 16
	m.Batch = 1 + int(g%8)
	g /= 8
	m.SeqLen = 256 + 128*int(g%15)
	return m
}

func (w *serveWorkload) reference() exp.RunConfig { return w.ref }

func (w *serveWorkload) setup(tr *tracer) ([]time.Duration, error) {
	// Compile the warm shapes first, through the same shared plan cache
	// the server uses, so the hot-set warm-up below measures no compile.
	var compiles []time.Duration
	for i, r := range warmShapes() {
		cfg, err := r.runConfig()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			w.ref = cfg
		}
		t0 := time.Now()
		_, err = call(tr, "exp.Compile", func() (*exp.Plan, error) { return exp.Compile(cfg) })
		compiles = append(compiles, time.Since(t0))
		if err != nil {
			return nil, err
		}
	}

	w.srv = serve.New(serve.Options{})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = w.ts.Client()
	for _, r := range w.hot {
		body := r.body()
		got, err := w.post(tr, body)
		if err != nil {
			return nil, fmt.Errorf("warming the hot set: %w", err)
		}
		w.hotBody = append(w.hotBody, body)
		w.hotHash = append(w.hotHash, hash(got))
	}

	return compiles, nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// runConfig resolves the request the way the server does.
func (r planReq) runConfig() (exp.RunConfig, error) {
	var req serve.PlanRequest
	if err := json.Unmarshal(r.body(), &req); err != nil {
		return exp.RunConfig{}, err
	}
	return req.RunConfig()
}

// missVariant returns the m-th never-asked cheap-knob variant of warm
// shape r: a new bandwidth share (a new budget key, so the planner runs)
// or a new pinned budget (no planner run). The knobs cycle through a
// fixed range, so later variants cost what earlier ones did, and a
// sub-MiB offset keeps every variant distinct from the others and from
// the hot set.
func missVariant(r planReq, m int, share bool) planReq {
	r.class = classMiss
	if share {
		r.share = 0.2 + float64(m%256)*1e-3 + float64(m/256)*1e-9
	} else {
		r.budget = int64(64*units.MiB) + int64(m%256)*int64(units.MiB) + 1 + int64(m/256)
	}
	return r
}

// draw produces the stream's next operation.
func (w *serveWorkload) draw(st *stream) op {
	if len(st.block) == 0 {
		for i := range blockLen {
			kind := kindHit
			switch {
			case i < blockNew:
				kind = kindNew
			case i < blockNew+blockPairs:
				kind = kindPair
			case i < blockNew+blockPairs+blockDups:
				kind = kindDup
			}
			st.block = append(st.block, kind)
		}
		st.rng.Shuffle(len(st.block), func(i, j int) { st.block[i], st.block[j] = st.block[j], st.block[i] })
	}
	kind := st.block[len(st.block)-1]
	st.block = st.block[:len(st.block)-1]
	switch kind {
	case kindNew:
		u := uint64(st.news)
		st.news++
		return op{class: classNew, hot: -1, reqs: []planReq{{class: classNew, model: w.newShape(u), strategy: string(exp.SSDTrain)}}}
	case kindPair, kindDup:
		warm := warmShapes()
		shape := warm[st.rng.IntN(len(warm))]
		a := missVariant(shape, st.misses, st.rng.IntN(2) == 0)
		st.misses++
		b := a
		if kind == kindPair {
			b = missVariant(shape, st.misses, st.rng.IntN(2) == 0)
			st.misses++
		}
		return op{class: classMiss, hot: -1, reqs: []planReq{a, b}}
	default:
		i := st.rng.IntN(len(w.hot))
		return op{class: classHit, hot: i, reqs: []planReq{w.hot[i]}}
	}
}

// next sends the stream's next operation; the two requests of a miss
// pair go out at once, the second from its own goroutine.
func (w *serveWorkload) next(tr *tracer) outcome {
	o := w.draw(w.st)
	out := outcome{class: o.class}
	bodies := make([][]byte, len(o.reqs))
	for i, r := range o.reqs {
		bodies[i] = r.body()
	}
	if o.hot >= 0 {
		bodies[0] = w.hotBody[o.hot]
	}
	got := make([][]byte, len(o.reqs))
	errs := make([]error, len(o.reqs))
	if len(o.reqs) == 2 {
		done := make(chan struct{})
		go func() {
			defer close(done)
			got[1], errs[1] = w.post(tr, bodies[1])
		}()
		got[0], errs[0] = w.post(tr, bodies[0])
		<-done
	} else {
		got[0], errs[0] = w.post(tr, bodies[0])
	}
	for i, r := range o.reqs {
		if errs[i] != nil {
			out.failed = true
			continue
		}
		h := hash(got[i])
		if o.hot >= 0 && h != w.hotHash[o.hot] {
			out.failed = true
		}
		w.sample[o.class].add(w.sampleRng, sent{req: r, hash: h})
	}
	if len(o.reqs) == 2 && o.reqs[0] == o.reqs[1] && !bytes.Equal(got[0], got[1]) {
		// Both members of a dup pair must get the one simulation's body.
		out.failed = true
	}
	return out
}

// post sends one /v1/plan request and returns the body of its 200
// response.
func (w *serveWorkload) post(tr *tracer, body []byte) ([]byte, error) {
	return call(tr, "serve./v1/plan", func() ([]byte, error) {
		resp, err := w.client.Post(w.ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("/v1/plan answered %d: %s", resp.StatusCode, bytes.TrimSpace(got))
		}
		return got, nil
	})
}

func hash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// probe observes the server's own counters over a phase: result-cache,
// coalescing, session-pool, batching and rejection ratios, plus the
// steady-state fast path's outcomes for the requests that simulated.
func (w *serveWorkload) probe() func(*phase, map[string]float64) {
	m0 := w.srv.Metrics()
	s0 := exp.GlobalSteadyStats()
	return func(p *phase, m map[string]float64) {
		m1 := w.srv.Metrics()
		s1 := exp.GlobalSteadyStats()
		ops := float64(p.ops)
		m["serve.result_cache_hit_frac"] = frac(float64(m1.ResultCache.Hits-m0.ResultCache.Hits),
			float64(m1.ResultCache.Hits+m1.ResultCache.Misses-m0.ResultCache.Hits-m0.ResultCache.Misses))
		m["serve.coalesced_frac"] = frac(float64(m1.CoalescedRequests-m0.CoalescedRequests), ops)
		m["serve.session_hit_frac"] = frac(float64(m1.Sessions.Hits-m0.Sessions.Hits),
			float64(m1.Sessions.Hits+m1.Sessions.Misses-m0.Sessions.Hits-m0.Sessions.Misses))
		m["serve.batch_mean_size"] = frac(float64(m1.Batch.BatchedRequests-m0.Batch.BatchedRequests),
			float64(m1.Batch.Flushes-m0.Batch.Flushes))
		m["serve.rejected_frac"] = frac(float64(m1.RejectedRequests+m1.RejectedDeadline-m0.RejectedRequests-m0.RejectedDeadline), ops)
		m["serve.hit_p50_ms"] = quantile(p.byClass[classHit], 0.5)
		m["serve.miss_p50_ms"] = quantile(p.byClass[classMiss], 0.5)
		m["serve.new_shape_p50_ms"] = quantile(p.byClass[classNew], 0.5)

		// The requests run inside the server, so their simulated work is
		// read from the process-wide fast-path counters.
		hits := int(s1.Hits - s0.Hits)
		runs := hits + int(s1.FallbackTrace+s1.FallbackFaults+s1.FallbackOff+s1.FallbackNoConvergence-
			s0.FallbackTrace-s0.FallbackFaults-s0.FallbackOff-s0.FallbackNoConvergence)
		extrapolated := int(s1.ExtrapolatedSteps - s0.ExtrapolatedSteps)
		p.steps = stepTally{
			runs:         runs,
			hits:         hits,
			simulated:    runs*(serveSteps+serveWarmup) - extrapolated,
			measured:     runs * serveSteps,
			extrapolated: extrapolated,
		}
	}
}

// check re-asks the sampled requests of every class and compares each
// answer with the body the timed phases got for it and with
// serve.RenderPlanResult of a fresh exp.Run of its config.
func (w *serveWorkload) check() (int, []error) {
	var errs []error
	checked := 0
	for _, r := range w.sample {
		for _, s := range r.kept[:min(r.seen, len(r.kept))] {
			checked++
			if err := w.checkOne(s); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return checked, errs
}

func (w *serveWorkload) checkOne(s sent) error {
	got, err := w.post(nil, s.req.body())
	if err != nil {
		return err
	}
	if hash(got) != s.hash {
		return fmt.Errorf("%s: a repeated request got a different body", s.req.body())
	}
	cfg, err := s.req.runConfig()
	if err != nil {
		return err
	}
	res, err := exp.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: fresh run: %w", s.req.body(), err)
	}
	if !bytes.Equal(got, serve.RenderPlanResult(res)) {
		return fmt.Errorf("%s: served body differs from a fresh run's", s.req.body())
	}
	return nil
}

// sequenceHash digests the first operations of the stream.
func (w *serveWorkload) sequenceHash() uint64 {
	h := fnv.New64a()
	st := newStream(w.seed)
	for range 256 {
		for _, r := range w.draw(st).reqs {
			h.Write(r.body())
		}
	}
	return h.Sum64()
}

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.client.CloseIdleConnections()
		w.ts.Close()
	}
}
