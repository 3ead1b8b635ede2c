package exp

import (
	"testing"

	"ssdtrain/internal/spans"
	"ssdtrain/internal/units"
)

// optimVariants covers the optimizer-offload strategy across both step
// schedules and both residency extremes: grant 0 puts every state on the
// NVMe rung (host link contention), a grant beyond the working set pins
// everything in DRAM (pure update/compute overlap).
func optimVariants() []RunConfig {
	var out []RunConfig
	for _, sched := range []string{ScheduleSync, ScheduleOverlap} {
		for _, grant := range []units.Bytes{0, optimProbeGrant} {
			cfg := smallCfg(OptimOffload)
			cfg.Schedule = sched
			cfg.DRAMCapacity = grant
			out = append(out, cfg)
		}
	}
	return out
}

// TestOptimSteadyStateByteIdentical extends the steady-state property to
// the optimizer-offload strategy: for both schedules at both residency
// extremes, the extrapolated RunResult — including the per-tier
// optimizer accounting and the update engine's busy time — is
// byte-identical to full simulation, or the fast path reports a clean
// named fallback and simulates everything.
func TestOptimSteadyStateByteIdentical(t *testing.T) {
	for _, base := range optimVariants() {
		for _, steps := range []int{3, 50} {
			cfg := base
			cfg.Steps = steps
			name := cfg.Schedule + "/" + cfg.DRAMCapacity.String()
			t.Run(name, func(t *testing.T) {
				fast := requireSteadyIdentical(t, cfg)
				switch fast.SteadyState.Fallback {
				case "", steadyFallbackNoConv:
				default:
					t.Errorf("unexpected fallback %q on a plain optim run", fast.SteadyState.Fallback)
				}
				if fast.SteadyState.Fallback == "" && steps == 50 && fast.SteadyState.ExtrapolatedSteps == 0 {
					t.Error("50-step run converged nothing: fast path never extrapolated")
				}
				if got := fast.SteadyState.SimulatedSteps + fast.SteadyState.ExtrapolatedSteps; got != steps {
					t.Errorf("simulated %d + extrapolated %d != %d steps",
						fast.SteadyState.SimulatedSteps, fast.SteadyState.ExtrapolatedSteps, steps)
				}
				if fast.Optim == nil {
					t.Fatal("optim run reported no optimizer usage")
				}
				if fast.Optim.UpdateBusy <= 0 {
					t.Error("optim run reported zero update-engine busy time")
				}
			})
		}
	}
}

// TestOptimTraceAttribution pins the flight-recorder story for the new
// strategy: a traced run carries the offloaded update spans, and the
// overlap schedule's deferred work shows up as either fwd(t+1) stall
// spans ("optim-wait") or a step-boundary drain window ("optim-drain") —
// the two places its cost can land.
func TestOptimTraceAttribution(t *testing.T) {
	for _, cfg := range optimVariants() {
		cfg.Trace = true
		name := cfg.Schedule + "/" + cfg.DRAMCapacity.String()
		t.Run(name, func(t *testing.T) {
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Trace == nil {
				t.Fatal("traced run returned no trace")
			}
			updates, overlapSpans, waits := 0, 0, 0
			for _, s := range got.Trace.Spans {
				switch {
				case s.Kind == spans.KindOptimOffload:
					updates++
				case s.Kind == spans.KindOptimOverlap:
					overlapSpans++
				case s.Kind == spans.KindStall && s.Name == "optim-wait":
					waits++
				}
			}
			if updates == 0 {
				t.Error("no offloaded optimizer update spans recorded")
			}
			if cfg.Schedule == ScheduleOverlap && overlapSpans == 0 && waits == 0 {
				t.Error("overlap run recorded neither optim-wait stalls nor an optim-drain window")
			}
			if cfg.Schedule == ScheduleSync && waits > 0 {
				t.Errorf("sync run recorded %d optim-wait stalls; the barrier should absorb them", waits)
			}
		})
	}
}

// TestOptimOverlapCrossover pins the headline comparison the OptimSweep
// figure plots: with the working set DRAM-resident the overlap schedule
// beats sync (the update work hides under fwd(t+1)), and offloading the
// optimizer is never free relative to the activation-only baseline.
func TestOptimOverlapCrossover(t *testing.T) {
	sync := Spec{
		Model:     smallCfg(OptimOffload).Model,
		Offload:   OffloadSpec{DRAMCapacity: optimProbeGrant},
		Optimizer: OptimizerSpec{Offload: true, Schedule: ScheduleSync},
	}
	overlap := sync
	overlap.Optimizer.Schedule = ScheduleOverlap
	res, err := Sweep(0, []Spec{sync, overlap})
	if err != nil {
		t.Fatal(err)
	}
	if s, o := res[0].StepTime(), res[1].StepTime(); o >= s {
		t.Errorf("DRAM-resident overlap step %v not below sync %v", o, s)
	}
}
