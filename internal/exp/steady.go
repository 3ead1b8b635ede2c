package exp

import (
	"sync/atomic"
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/core"
	"ssdtrain/internal/sim"
)

// Fallback reasons reported on RunResult.SteadyState and counted in the
// process-wide SteadyStats.
const (
	// steadyFallbackTrace: a traced run is fully simulated — the flight
	// recorder's spans cannot be synthesized.
	steadyFallbackTrace = "trace"
	// steadyFallbackFaults: an armed fault spec needs the real transfer
	// stream — a trigger could fire inside the extrapolated region.
	steadyFallbackFaults = "faults"
	// steadyFallbackOff: the SteadyState knob forced full simulation.
	steadyFallbackOff = "off"
	// steadyFallbackNoConv: no two consecutive measured steps matched
	// within Steps.
	steadyFallbackNoConv = "no-convergence"
)

// steadyGlobal accumulates process-wide fast-path outcomes: each run's
// outcome folds into package atomics the serve /metrics endpoint and the
// selfchecks read.
var steadyGlobal struct {
	hits, extrapolated                                         atomic.Uint64
	fallbackTrace, fallbackFaults, fallbackOff, fallbackNoConv atomic.Uint64
}

// SteadyStats is a snapshot of the process-wide steady-state fast-path
// counters.
type SteadyStats struct {
	// Hits counts runs where the signature detector converged and the
	// fast path extrapolated the remaining steps.
	Hits uint64 `json:"hits"`
	// ExtrapolatedSteps is the total number of measured steps synthesized
	// analytically instead of simulated.
	ExtrapolatedSteps uint64 `json:"extrapolated_steps"`
	// Fallback* count fully simulated runs by reason.
	FallbackTrace         uint64 `json:"fallback_trace"`
	FallbackFaults        uint64 `json:"fallback_faults"`
	FallbackOff           uint64 `json:"fallback_off"`
	FallbackNoConvergence uint64 `json:"fallback_no_convergence"`
}

// GlobalSteadyStats snapshots the process-wide fast-path counters.
func GlobalSteadyStats() SteadyStats {
	return SteadyStats{
		Hits:                  steadyGlobal.hits.Load(),
		ExtrapolatedSteps:     steadyGlobal.extrapolated.Load(),
		FallbackTrace:         steadyGlobal.fallbackTrace.Load(),
		FallbackFaults:        steadyGlobal.fallbackFaults.Load(),
		FallbackOff:           steadyGlobal.fallbackOff.Load(),
		FallbackNoConvergence: steadyGlobal.fallbackNoConv.Load(),
	}
}

// steadyTracker computes the per-step state signature behind the
// steady-state fast path, the simulator's one convergence mechanism.
// Each executed step folds (a) the step's own metrics and (b) the arena's
// state delta since the previous step — compute-queue growth, the
// allocator's event tail, counter increments, and the offload stack's
// per-cycle accounting — all shift-invariant quantities: times enter
// relative to the step's start, cumulative counters as deltas. Two
// consecutive measured steps with equal signatures mean the simulation
// has entered a cycle that repeats exactly, so the remaining steps can be
// synthesized from the last one.
//
// The signature deliberately excludes warm-capacity state that differs
// between a fresh arena and a recycled session arena: a session-reused
// Execute must converge on the same step as a fresh one so their
// RunResults stay byte-identical.
type steadyTracker struct {
	rt    *autograd.Runtime
	off   *core.TieredOffloader
	optim *core.OptimOffloader

	// allocMark is the allocator event-log position at the current step's
	// start; the tail from the mark is the step's own event block, folded
	// into the signature and replicated verbatim on extrapolation.
	allocMark int

	prevBusy time.Duration
	prevJobs int

	// counterPrev/counterDelta track per-name counter snapshots and the
	// last step's increments (replayed ×R on extrapolation).
	counterPrev  map[string]int64
	counterDelta map[string]int64

	prevSum  uint64
	havePrev bool
}

func newSteadyTracker(rt *autograd.Runtime, off *core.TieredOffloader, optim *core.OptimOffloader) *steadyTracker {
	return &steadyTracker{
		rt:           rt,
		off:          off,
		optim:        optim,
		counterPrev:  make(map[string]int64, 8),
		counterDelta: make(map[string]int64, 8),
	}
}

// beginStep records the allocator event-log position before the step runs.
func (t *steadyTracker) beginStep() { t.allocMark = t.rt.Alloc.EventMark() }

// fold folds one executed step. Warmup steps fold too — they advance the
// delta snapshots so the first measured step's delta covers exactly one
// step — but only measured steps participate in the two-consecutive-match
// comparison. It returns whether this measured step matched the previous
// measured one.
func (t *steadyTracker) fold(m StepMetrics, measured bool) bool {
	var sig sim.Sig
	origin := m.Start

	// The step's own observable metrics.
	sig.FoldDur(m.End - m.Start)
	sig.FoldDur(m.HostTime)
	sig.FoldDur(m.UpdateTime)
	sig.FoldDur(m.Stats.StepTime)
	sig.FoldInt(int64(m.Stats.ModelFLOPs))
	sig.FoldDur(m.Stats.ComputeStall)
	sig.FoldInt(int64(m.Stats.OffloadedBytes))
	sig.FoldInt(int64(m.Stats.ReloadedBytes))
	sig.FoldInt(int64(m.Stats.ForwardedBytes))
	sig.FoldInt(int64(m.IO.Offloaded))
	sig.FoldInt(int64(m.IO.Kept))
	sig.FoldInt(int64(m.IO.Forwarded))
	sig.FoldInt(int64(m.IO.Reloaded))
	sig.FoldInt(m.IO.Packs)
	sig.FoldInt(m.IO.DedupHits)
	sig.FoldInt(m.IO.Leaked)

	// Compute stream: busy growth, job growth, backlog horizon.
	cb := t.rt.Compute.BusyTime()
	sig.FoldDur(cb - t.prevBusy)
	t.prevBusy = cb
	cj := t.rt.Compute.Jobs()
	sig.FoldInt(int64(cj - t.prevJobs))
	t.prevJobs = cj
	sig.FoldHorizon(t.rt.Compute.BusyUntil(), origin)

	// The step's allocator event block, relative to the step start.
	t.rt.Alloc.FoldTail(&sig, t.allocMark, origin)

	// Counter increments. Map iteration order is random, so each entry
	// hashes independently and the results combine by XOR — order-blind,
	// deterministic.
	var acc uint64
	n := 0
	t.rt.Counters.Range(func(name string, v int64) {
		d := v - t.counterPrev[name]
		var e sim.Sig
		e.FoldString(name)
		e.FoldInt(d)
		acc ^= e.Sum()
		n++
		t.counterPrev[name] = v
		t.counterDelta[name] = d
	})
	sig.FoldInt(int64(n))
	sig.Fold(acc)

	// The offload stack's per-cycle accounting.
	if t.off != nil {
		t.off.FoldCycle(&sig, origin)
	}
	if t.optim != nil {
		t.optim.FoldCycle(&sig, origin)
	}

	sum := sig.Sum()
	match := measured && t.havePrev && sum == t.prevSum
	if measured {
		t.prevSum = sum
		t.havePrev = true
	}
	return match
}

// extrapolateCounters replays the last measured step's counter increments
// n more times onto the live counter set.
func (t *steadyTracker) extrapolateCounters(n int64) {
	for name, d := range t.counterDelta {
		if d != 0 {
			t.rt.Counters.Add(name, d*n)
		}
	}
}
