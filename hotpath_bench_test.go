// Hot-path benchmarks: the compiled-plan sweeps, their session-reuse,
// traced, steady-state and optimizer-schedule variants. cmd/benchcheck
// records these into BENCH.json and gates a fresh run against it; the
// workloads below are the only definition of what is measured.
//
// The pre-overhaul baselines (commit d58ffb6, EXPERIMENTS.md) ran the
// same sweeps through per-point exp.Run: graph rebuilt, vectors
// recomputed, budget re-planned, and all 12 steps simulated for every
// point. These workloads measure two steps per point (see sweepBase).
package ssdtrain

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/units"
)

// sweepBase is the representative sweep workload: the paper's BERT
// column at hidden 8192 with enough layers for real offload traffic. Two
// measured steps are the fewest in which the steady-state detector can
// see a match, so traced and untraced points simulate the same steps.
func sweepBase() exp.RunConfig {
	return exp.RunConfig{Model: models.PaperConfig(models.BERT, 8192, 4, 16), Strategy: exp.SSDTrain, Steps: 2}
}

// shareSweepPoints are the bandwidth shares every share-sweep variant
// measures; BENCH.json compares the variants against each other.
var shareSweepPoints = []float64{0, 0.5, 0.25, 0.125}

// capacityFractions step a sweep's DRAM grant or offload budget through
// its reference size.
var capacityFractions = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1}

// shareSweep runs the bandwidth-share points of base through execute.
func shareSweep(base exp.RunConfig, execute func(exp.RunConfig) (*exp.RunResult, error)) error {
	for _, sh := range shareSweepPoints {
		cfg := base
		cfg.SSDBandwidthShare = sh
		if _, err := execute(cfg); err != nil {
			return err
		}
	}
	return nil
}

// budgetSweep is the 9-point offload-budget sweep: a planned reference
// run, seven budget fractions and the planned budget again, all through
// one compiled plan.
func budgetSweep() error {
	base := sweepBase()
	plan, err := exp.Compile(base)
	if err != nil {
		return err
	}
	ref, err := plan.Execute(base)
	if err != nil {
		return err
	}
	for _, f := range capacityFractions {
		cfg := base
		cfg.Budget = units.Bytes(f * float64(ref.PlannedBudget))
		if _, err := plan.Execute(cfg); err != nil {
			return err
		}
	}
	cfg := base
	cfg.Budget = ref.PlannedBudget
	_, err = plan.Execute(cfg)
	return err
}

// freshShareSweep is the 4-point bandwidth-share sweep (fleet-style
// contention profiling) through one compiled plan.
func freshShareSweep() error {
	plan, err := exp.Compile(sweepBase())
	if err != nil {
		return err
	}
	return shareSweep(sweepBase(), plan.Execute)
}

// tieredBase is a dram-first DRAM+NVMe hybrid at a quarter array share:
// the point a fleet of hybrid tenants profiles.
func tieredBase() exp.RunConfig {
	base := sweepBase()
	base.SSDBandwidthShare = 0.25
	base.Strategy = exp.HybridOffload
	base.Placement = exp.PlacementDRAMFirst
	return base
}

// tieredSweep is the 8-point DRAM-capacity placement sweep: a reference
// run plus the capacity fractions of its eligible bytes.
func tieredSweep(execute func(exp.RunConfig) (*exp.RunResult, error)) error {
	base := tieredBase()
	ref, err := execute(base)
	if err != nil {
		return err
	}
	for _, f := range capacityFractions {
		cfg := base
		cfg.DRAMCapacity = units.Bytes(f * float64(ref.EligibleBytes))
		if _, err := execute(cfg); err != nil {
			return err
		}
	}
	return nil
}

// freshTieredSweep runs the tiered sweep through one compiled plan.
func freshTieredSweep() error {
	plan, err := exp.Compile(tieredBase())
	if err != nil {
		return err
	}
	return tieredSweep(plan.Execute)
}

// optimBase offloads the sweep model's Adam FP32 states and its
// gradient/parameter shuttle to the DRAM/NVMe hierarchy. Schedule and
// DRAM grant are cheap knobs, so one compiled plan serves both step
// schedules and every residency point.
func optimBase() exp.RunConfig {
	base := sweepBase()
	base.Strategy = exp.OptimOffload
	return base
}

// optimProbeGrant is a DRAM grant no optimizer working set reaches; the
// probe run under it reports the full working set the sweep fractions.
const optimProbeGrant = units.Bytes(1) << 50

// optimSweep is the 4-point optimizer-residency sweep under one step
// schedule: a fully DRAM-resident probe (doubling as the 100% point)
// plus three spill fractions.
func optimSweep(schedule string) func(*exp.Session) error {
	return func(s *exp.Session) error {
		base := optimBase()
		base.Schedule = schedule
		probe := base
		probe.DRAMCapacity = optimProbeGrant
		ref, err := s.Execute(probe)
		if err != nil {
			return err
		}
		for _, f := range []float64{0, 0.25, 0.5} {
			cfg := base
			cfg.DRAMCapacity = units.Bytes(f * float64(ref.Optim.DRAMResident))
			if _, err := s.Execute(cfg); err != nil {
				return err
			}
		}
		return nil
	}
}

// tracedShareSweep runs the share points with the flight recorder on.
func tracedShareSweep(s *exp.Session) error {
	return shareSweep(sweepBase(), func(cfg exp.RunConfig) (*exp.RunResult, error) {
		cfg.Trace = true
		res, err := s.Execute(cfg)
		if err == nil && (res.Trace == nil || len(res.Trace.Spans) == 0) {
			err = fmt.Errorf("traced share point %v recorded no spans", cfg.SSDBandwidthShare)
		}
		return res, err
	})
}

// benchFresh times b.N passes of a sweep that compiles (a plan-cache
// hit) and executes every point on a fresh arena. One untimed pass first
// warms the process-wide caches, so every sample measures the same work.
func benchFresh(b *testing.B, sweep func() error) {
	if err := sweep(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSession builds one arena for base's plan, runs one untimed pass so
// its pools are filled, then times b.N sweep passes: steady-state
// repeated Execute.
func benchSession(b *testing.B, base exp.RunConfig, sweep func(*exp.Session) error) {
	plan, err := exp.Compile(base)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := exp.NewSession(plan)
	if err != nil {
		b.Fatal(err)
	}
	if err := sweep(sess); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep(sess); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledSweep runs the 9-point offload-budget sweep.
// Pre-overhaul baseline (d58ffb6): 25.99 ms/op, 221509 allocs/op.
func BenchmarkCompiledSweep(b *testing.B) { benchFresh(b, budgetSweep) }

// BenchmarkCompiledShareSweep runs the 4-point bandwidth-share sweep on
// fresh arenas: the baseline of BenchmarkSessionShareSweep.
// Pre-overhaul baseline (d58ffb6): 9.41 ms/op, 93492 allocs/op.
func BenchmarkCompiledShareSweep(b *testing.B) { benchFresh(b, freshShareSweep) }

// BenchmarkTieredSweep runs the 8-point DRAM-capacity placement sweep on
// fresh arenas: the baseline of BenchmarkSessionTieredSweep.
func BenchmarkTieredSweep(b *testing.B) { benchFresh(b, freshTieredSweep) }

// BenchmarkSessionShareSweep runs the share sweep on one reused
// exp.Session: the arena (runtime, graph, offload stack) is built once
// and reset in place per point.
func BenchmarkSessionShareSweep(b *testing.B) {
	benchSession(b, sweepBase(), func(s *exp.Session) error { return shareSweep(sweepBase(), s.Execute) })
}

// BenchmarkSessionTieredSweep runs the tiered sweep on one reused
// exp.Session: the fleet profiler's hot path with arena recycling.
func BenchmarkSessionTieredSweep(b *testing.B) {
	benchSession(b, tieredBase(), func(s *exp.Session) error { return tieredSweep(s.Execute) })
}

// BenchmarkTracedShareSweep runs the share sweep on one reused
// exp.Session with the flight recorder capturing: the enabled-path cost
// against the untraced BenchmarkSessionShareSweep.
func BenchmarkTracedShareSweep(b *testing.B) { benchSession(b, sweepBase(), tracedShareSweep) }

// BenchmarkRecorderDisabledEmit measures the flight recorder's per-span
// emit with the recorder off: the cost every simulated resource pays on
// an untraced run. spans.TestRecorderDisabledEmitAllocs pins it
// allocation-free.
func BenchmarkRecorderDisabledEmit(b *testing.B) {
	rec := spans.NewRecorder(16)
	track := rec.RegisterTrack("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Span(track, spans.KindDMA, -1, "emit", 0, time.Microsecond, 4096, 0)
	}
	b.StopTimer()
	if rec.Enabled() {
		b.Fatal("disabled recorder reports enabled")
	}
}

// BenchmarkOptimSyncSweep runs the optimizer-residency sweep under the
// classic post-backward barrier: the baseline of the overlap schedule.
func BenchmarkOptimSyncSweep(b *testing.B) {
	benchSession(b, optimBase(), optimSweep(exp.ScheduleSync))
}

// BenchmarkOptimOverlapSweep runs the identical residency points with
// the optimizer pipeline draining into fwd(t+1) instead of a step
// barrier (GreedySnake's schedule).
func BenchmarkOptimOverlapSweep(b *testing.B) {
	benchSession(b, optimBase(), optimSweep(exp.ScheduleOverlap))
}

// steadyBase is the sweep model at 10000 steps, so the steady-state
// extrapolation (simulate until two consecutive steps produce identical
// event signatures, synthesize the rest) carries essentially the whole
// run.
func steadyBase() exp.RunConfig {
	base := sweepBase()
	base.Steps = 10000
	return base
}

// verifiedSteadyPlan compiles the 10k-step plan the steady/full pair
// shares and checks, once per process, that the pair compares equal
// answers: every share point on the fast path extrapolated (converged,
// no fallback) and its RunResult equals the full simulation's, field for
// field, once the steady-state metadata that must differ is neutralized.
var verifiedSteadyPlan = sync.OnceValues(func() (*exp.Plan, error) {
	plan, err := exp.Compile(steadyBase())
	if err != nil {
		return nil, err
	}
	for _, sh := range shareSweepPoints {
		fast := steadyBase()
		fast.SSDBandwidthShare = sh
		fres, err := plan.Execute(fast)
		if err != nil {
			return nil, err
		}
		if fb := fres.SteadyState.Fallback; fb != "" {
			return nil, fmt.Errorf("share %v fell back to full simulation (%s)", sh, fb)
		}
		if fres.SteadyState.ExtrapolatedSteps == 0 {
			return nil, fmt.Errorf("share %v extrapolated nothing", sh)
		}
		slow := fast
		slow.SteadyState = "off"
		sres, err := plan.Execute(slow)
		if err != nil {
			return nil, err
		}
		sres.Config.SteadyState = fres.Config.SteadyState
		sres.SteadyState = fres.SteadyState
		if !reflect.DeepEqual(fres, sres) {
			return nil, fmt.Errorf("share %v: fast-path result differs from full simulation", sh)
		}
	}
	return plan, nil
})

// benchSteady times the 4-point share sweep at 10k steps through the
// verified plan with the given SteadyState knob.
func benchSteady(b *testing.B, steady string) {
	plan, err := verifiedSteadyPlan()
	if err != nil {
		b.Fatal(err)
	}
	base := steadyBase()
	base.SteadyState = steady
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := shareSweep(base, plan.Execute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyShareSweep runs the share sweep at 10000 steps on the
// steady-state fast path: each point simulates until its step signature
// converges and extrapolates the rest analytically.
func BenchmarkSteadyShareSweep(b *testing.B) { benchSteady(b, "") }

// BenchmarkFullSimShareSweep runs the identical sweep with the fast path
// off, all 10000 steps of every point simulated: the baseline of
// BenchmarkSteadyShareSweep.
func BenchmarkFullSimShareSweep(b *testing.B) { benchSteady(b, "off") }

// BenchmarkDedupSweep measures the exp.Sweep dedup layer on a batch with
// heavy repetition (16 requested points, 4 distinct), the shape fleet
// mixes produce. Sequential workers isolate dedup from parallelism.
func BenchmarkDedupSweep(b *testing.B) {
	b.ReportAllocs()
	var specs []exp.Spec
	for i := 0; i < 16; i++ {
		base := sweepBase()
		specs = append(specs, exp.Spec{
			Model:   base.Model,
			Offload: exp.OffloadSpec{Strategy: base.Strategy},
			Run:     exp.RunSpec{Steps: base.Steps},
			Inject:  exp.InjectSpec{SSDBandwidthShare: shareSweepPoints[i%len(shareSweepPoints)]},
		})
	}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Sweep(1, specs); err != nil {
			b.Fatal(err)
		}
	}
}
