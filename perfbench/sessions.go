package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// sweepWorkload is the figure / fleet-profiler / DRAM-sweep path: a
// seeded sequence of what-if points, each a cheap-knob variant of one of
// a fixed set of shapes, on exp.Sessions built once per shape during
// setup.
type sweepWorkload struct {
	seed     uint64
	shapes   []exp.Spec
	sessions []*exp.Session
	// points are the distinct configs the sequence draws from; equal
	// configs share one point, so a point's answer must never change.
	points []point
	// seq is the seeded operation sequence (point indices), cycled.
	seq  []int
	pos  int
	seen map[int]answer
}

type point struct {
	shape int
	cfg   exp.RunConfig
}

// answer is the part of a RunResult cheap enough to compare on every
// operation: a repeated config must reproduce it exactly.
type answer struct {
	step, end, stall                      time.Duration
	actPeak, totalPeak, offloaded, budget units.Bytes
}

func answerOf(r *exp.RunResult) answer {
	m := r.Measured
	return answer{
		step: m.Stats.StepTime, end: m.End, stall: m.Stats.ComputeStall,
		actPeak: m.ActPeak, totalPeak: m.TotalPeak, offloaded: m.IO.Offloaded, budget: r.PlannedBudget,
	}
}

// seqLen is the least length of the sweep's operation sequence; longer
// runs cycle through it.
const seqLen = 4096

// reference is the first point: GPT 8192x4 under ssdtrain, no knob set.
func (w *sweepWorkload) reference() exp.RunConfig { return w.points[0].cfg }
func (w *sweepWorkload) close()                   {}

func (w *sweepWorkload) probe() func(*phase, map[string]float64) {
	return func(*phase, map[string]float64) {}
}

func (w *sweepWorkload) setup(tr *tracer) ([]time.Duration, error) {
	var compiles []time.Duration
	w.seen = make(map[int]answer)
	for i, shape := range w.shapes {
		cfg, err := shape.RunConfig()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		plan, err := call(tr, "exp.Compile", func() (*exp.Plan, error) { return exp.Compile(cfg) })
		compiles = append(compiles, time.Since(t0))
		if err != nil {
			return nil, err
		}
		sess, err := call(tr, "exp.NewSession", func() (*exp.Session, error) { return exp.NewSession(plan) })
		if err != nil {
			return nil, err
		}
		w.sessions = append(w.sessions, sess)
		for j, k := range sweepKnobs(shape, plan) {
			kc, err := k.RunConfig()
			if err != nil {
				return nil, err
			}
			if j == 0 {
				// Prime the arena: its first Execute grows the pools every
				// later one reuses.
				if _, err := call(tr, "exp.Session.Execute", func() (*exp.RunResult, error) { return sess.Execute(kc) }); err != nil {
					return nil, err
				}
			}
			w.points = append(w.points, point{shape: i, cfg: kc})
		}
	}
	w.seq = w.sequence()
	return compiles, nil
}

// sequence draws the seeded operation sequence: epochs that each visit
// every point once, in a seeded order. Every seed thus runs the same mix
// of points and differs only in their order.
func (w *sweepWorkload) sequence() []int {
	rng := rand.New(rand.NewPCG(w.seed, 0x5e55))
	seq := make([]int, 0, seqLen+len(w.points))
	for len(seq) < seqLen {
		epoch := rng.Perm(len(w.points))
		seq = append(seq, epoch...)
	}
	return seq
}

func (w *sweepWorkload) sequenceHash() uint64 {
	h := fnv.New64a()
	for _, p := range w.seq {
		fmt.Fprintf(h, "%+v\n", w.points[p].cfg)
	}
	return h.Sum64()
}

func (w *sweepWorkload) next(tr *tracer) outcome {
	p := w.seq[w.pos%len(w.seq)]
	w.pos++
	pt := w.points[p]
	sess := w.sessions[pt.shape]
	t0 := time.Now()
	res, err := call(tr, "exp.Session.Execute", func() (*exp.RunResult, error) { return sess.Execute(pt.cfg) })
	o := outcome{exec: time.Since(t0)}
	if pt.cfg.Strategy == exp.SSDTrain {
		// The report splits latency by strategy.
		o.class = 1
	}
	if err != nil {
		o.failed = true
		return o
	}
	o.steps = tallyOf(res)
	a := answerOf(res)
	if prev, ok := w.seen[p]; ok && prev != a {
		o.failed = true
	} else {
		w.seen[p] = a
	}
	return o
}

// checkSamples is how many executed operations check re-runs.
const checkSamples = 6

// check re-runs a seeded sample of the executed operations on their
// sessions and compares each result with a fresh, fully simulated
// exp.Run of the same config (steady-state fast path off), and with the
// answer the timed phases saw for that config.
func (w *sweepWorkload) check() (int, []error) {
	rng := rand.New(rand.NewPCG(w.seed, 0xc4ec))
	done := min(w.pos, len(w.seq))
	var errs []error
	checked := 0
	for range min(checkSamples, done) {
		p := w.seq[rng.IntN(done)]
		pt := w.points[p]
		checked++
		got, err := w.sessions[pt.shape].Execute(pt.cfg)
		if err != nil {
			errs = append(errs, fmt.Errorf("re-run of %v: %w", pt.cfg.Model, err))
			continue
		}
		fresh := pt.cfg
		fresh.SteadyState = "off"
		want, err := exp.Run(fresh)
		if err != nil {
			errs = append(errs, fmt.Errorf("fresh run of %v: %w", pt.cfg.Model, err))
			continue
		}
		if !reflect.DeepEqual(stripHow(got), stripHow(want)) {
			errs = append(errs, fmt.Errorf("%v %s: session answer differs from a fresh full simulation", pt.cfg.Model, pt.cfg.Strategy))
		}
		if a, ok := w.seen[p]; !ok || a != answerOf(got) {
			errs = append(errs, fmt.Errorf("%v %s: repeated config changed its answer", pt.cfg.Model, pt.cfg.Strategy))
		}
	}
	return checked, errs
}

// stripHow strips from a result what legitimately differs between a
// fast-path and a fully simulated run of one config: how the answer was
// produced, not the answer.
func stripHow(r *exp.RunResult) exp.RunResult {
	c := *r
	c.Config.SteadyState = ""
	c.SteadyState = exp.SteadyStateInfo{}
	c.Trace = nil
	return c
}

// fig6Models are the paper's Fig 6 evaluation points, one per
// architecture so that every (hidden, layers) geometry appears once: GPT
// at 8192x4, BERT at 12288x3 and T5 at 16384x2, batch 16.
func fig6Models() []models.Config {
	var out []models.Config
	for i, arch := range []models.Arch{models.GPT, models.BERT, models.T5} {
		g := models.Fig6Geometries()[i]
		out = append(out, models.PaperConfig(arch, g[0], g[1], 16))
	}
	return out
}

// newSweep runs cheap-knob points (bandwidth share, budget fraction,
// DRAM grant) on reused sessions over the Fig 6 geometries, under
// ssdtrain at keep-last 1 and the dram-first hybrid at keep-last 2. Runs
// are long enough (48 measured steps) that the steady-state fast path
// converges and synthesizes most of them.
func newSweep(seed uint64) *sweepWorkload {
	run := exp.RunSpec{Steps: 48, Warmup: 2}
	var shapes []exp.Spec
	for _, m := range fig6Models() {
		for i, strat := range []exp.Strategy{exp.SSDTrain, exp.HybridOffload} {
			shapes = append(shapes, exp.Spec{
				Model:   m,
				Offload: exp.OffloadSpec{Strategy: strat, KeepLastModules: 1 + i},
				Run:     run,
			})
		}
	}
	return &sweepWorkload{seed: seed, shapes: shapes}
}

// sweepKnobs lists the cheap-knob variants of a shape, given the shape's
// compiled plan.
func sweepKnobs(shape exp.Spec, plan *exp.Plan) []exp.Spec {
	eligible := float64(plan.EligibleBytes())
	drams := []float64{0}
	if shape.Offload.Strategy == exp.HybridOffload {
		drams = []float64{0.25, 0.5, 1}
	}
	var out []exp.Spec
	// Shares and budgets stay where the offload stack keeps up with the
	// step, so the fast path converges: at a quarter share with most
	// activations offloaded the backlog grows every step.
	for _, share := range []float64{0, 0.75, 0.5} {
		for _, budget := range []float64{0, 0.125, 0.25, 0.5} {
			for _, dram := range drams {
				s := shape
				s.Inject.SSDBandwidthShare = share
				s.Offload.Budget = units.Bytes(budget * eligible)
				s.Offload.DRAMCapacity = units.Bytes(dram * eligible)
				out = append(out, s)
			}
		}
	}
	return out
}
