package main

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"syscall"
	"time"

	"ssdtrain/internal/exp"
)

// workload is one seeded closed-loop traffic mix over the simulator's
// public entry points.
type workload interface {
	// setup builds everything the measured phases need; setup_s times it.
	// It returns the wall time of each exp.Compile call it made.
	setup(tr *tracer) (compiles []time.Duration, err error)
	// next runs the next operation of the seeded sequence.
	next(tr *tracer) outcome
	// reference is the config whose modeled step the model.* metrics
	// describe.
	reference() exp.RunConfig
	// probe starts a per-layer observation of the workload's own
	// counters; the returned function adds them, for phase p, to m.
	probe() func(p *phase, m map[string]float64)
	// check cross-checks a seeded sample of the operations run so far
	// against fresh runs, returning how many it checked and the
	// mismatches it found.
	check() (checked int, errs []error)
	// sequenceHash digests the seeded operation sequence (after setup).
	sequenceHash() uint64
	close()
}

// outcome is what one operation reports back to the closed loop.
type outcome struct {
	// class is the workload's latency class of the operation (serve: hot
	// hit, cheap-knob miss, first-seen shape).
	class  int
	failed bool
	// exec is the wall time of the operation's exp.Session.Execute call,
	// 0 when the operation made none.
	exec  time.Duration
	steps stepTally
}

// maxClasses bounds outcome.class.
const maxClasses = 3

// stepTally counts the simulated work behind operations.
type stepTally struct {
	runs int
	// hits counts runs whose steady-state fast path converged.
	hits int
	// simulated counts steps actually simulated, warmup steps included.
	simulated int
	// measured and extrapolated count measured steps, and those of them
	// the fast path synthesized instead of simulating.
	measured, extrapolated int
}

func (t *stepTally) add(u stepTally) {
	t.runs += u.runs
	t.hits += u.hits
	t.simulated += u.simulated
	t.measured += u.measured
	t.extrapolated += u.extrapolated
}

// tallyOf reads one run's simulated work from its RunResult.
func tallyOf(res *exp.RunResult) stepTally {
	t := stepTally{
		runs:         1,
		simulated:    res.SteadyState.SimulatedSteps + res.Config.Warmup,
		measured:     res.Config.Steps,
		extrapolated: res.SteadyState.ExtrapolatedSteps,
	}
	if res.SteadyState.Fallback == "" {
		t.hits = 1
	}
	return t
}

// phase is what one measured stretch of closed-loop traffic recorded.
type phase struct {
	wall, cpu time.Duration
	ops       int
	failed    int
	// lat, byClass and exec are sorted ascending.
	lat     []time.Duration
	byClass [maxClasses][]time.Duration
	exec    []time.Duration
	steps   stepTally
	mallocs uint64
	bytes   uint64
	// windows split the phase into consecutive stretches of about the
	// same length, so that rates can be reported as quantiles over them.
	windows []window
}

// window is one stretch of a phase.
type window struct {
	wall, cpu time.Duration
	ops       int
	// lat is sorted ascending.
	lat []time.Duration
}

// windowQuantile returns the q-quantile of f over the phase's windows
// that completed an operation, or 0 for none.
func (p *phase) windowQuantile(q float64, f func(w window) float64) float64 {
	var vs []float64
	for _, w := range p.windows {
		if w.ops > 0 {
			vs = append(vs, f(w))
		}
	}
	return quantileOf(vs, q)
}

// quantileOf returns the nearest-rank q-quantile of vs (sorting it), or
// 0 for none.
func quantileOf(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[max(i, 0)]
}

// runPhase drives the workload's closed loop for d and gathers what the
// phase measured, split into windows of about win. The loop runs the
// next operation as soon as the previous one returns.
func runPhase(w workload, d, win time.Duration, tr *tracer) *phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// The sampler marks window boundaries: wall offset and process CPU.
	type mark struct{ at, cpu time.Duration }
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	marks := []mark{{0, cpu0}}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(win)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				marks = append(marks, mark{time.Since(start), cpuTime()})
			case <-stop:
				return
			}
		}
	}()

	p := &phase{lat: make([]time.Duration, 0, 1<<14)}
	end := make([]time.Duration, 0, 1<<14)
	class := make([]uint8, 0, 1<<14)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		o := w.next(tr)
		e := time.Since(start)
		p.lat = append(p.lat, e-t0.Sub(start))
		end = append(end, e)
		class = append(class, uint8(o.class))
		if o.exec > 0 {
			p.exec = append(p.exec, o.exec)
		}
		if o.failed {
			p.failed++
		}
		p.steps.add(o.steps)
	}
	close(stop)
	<-sampled
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.ops = len(p.lat)

	// Only whole windows count; the tail after the last mark is dropped.
	for i := 1; i < len(marks); i++ {
		p.windows = append(p.windows, window{wall: marks[i].at - marks[i-1].at, cpu: marks[i].cpu - marks[i-1].cpu})
	}
	for i, e := range end {
		p.byClass[class[i]] = append(p.byClass[class[i]], p.lat[i])
		k, _ := slices.BinarySearchFunc(marks[1:], e, func(m mark, t time.Duration) int { return cmp.Compare(m.at, t) })
		if k < len(p.windows) {
			p.windows[k].ops++
			p.windows[k].lat = append(p.windows[k].lat, p.lat[i])
		}
	}
	slices.Sort(p.lat)
	slices.Sort(p.exec)
	for i := range p.byClass {
		slices.Sort(p.byClass[i])
	}
	for i := range p.windows {
		slices.Sort(p.windows[i].lat)
	}
	return p
}

// warmup runs the workload in windows until its throughput stops
// climbing: never shorter than s.minWarm (a fresh process runs its first
// second or two measurably slower), never longer than s.maxWarm. It
// returns the operations it attempted and those that failed.
func warmup(w workload, s settings) (attempted, failed int) {
	best := 0.0
	start := time.Now()
	for {
		p := runPhase(w, s.window, s.window, nil)
		attempted += p.ops
		failed += p.failed
		rate := float64(p.ops) / p.wall.Seconds()
		elapsed := time.Since(start)
		if elapsed >= s.maxWarm || (elapsed >= s.minWarm && rate < best*1.02) {
			return attempted, failed
		}
		best = max(best, rate)
	}
}

// quantile returns the nearest-rank q-quantile of sorted, in
// milliseconds, or 0 for no samples.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return ms(sorted[max(i, 0)])
}

// p99 returns the q-quantile, over consecutive groups of whole windows
// each holding at least minOps operations, of the group's p99 latency
// in milliseconds: the highest percentile with at least ten samples
// beyond it in every group. With fewer than minOps operations in the
// whole phase it is the phase's p99.
func (p *phase) p99(minOps int, q float64) float64 {
	var groups []float64
	var cur []time.Duration
	for _, w := range p.windows {
		cur = append(cur, w.lat...)
		if len(cur) >= minOps {
			slices.Sort(cur)
			groups = append(groups, quantile(cur, 0.99))
			cur = nil
		}
	}
	if len(groups) == 0 {
		return quantile(p.lat, 0.99)
	}
	return quantileOf(groups, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rusage reads this process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF on a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far: every
// goroutine's, server and GC included.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// tracer keeps wall-clock spans around the benchmark's calls into each
// layer and labels those calls for the CPU profile. Untraced phases pass
// a nil tracer.
type tracer struct {
	start time.Time
	mu    sync.Mutex // guards spans: serve's request pairs call concurrently
	spans []span
}

type span struct {
	name       string
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// call runs f as a call into the layer name: under a pprof label and a
// wall-clock span when tr is set, directly otherwise.
func call[T any](tr *tracer, name string, f func() (T, error)) (T, error) {
	if tr == nil {
		return f()
	}
	var v T
	var err error
	start := time.Since(tr.start)
	pprof.Do(context.Background(), pprof.Labels("call", name), func(context.Context) { v, err = f() })
	s := span{name: name, start: start, end: time.Since(tr.start)}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return v, err
}
