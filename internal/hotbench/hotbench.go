// Package hotbench defines the hot-path benchmark workloads shared by
// the `go test -bench` benchmarks and cmd/bench (which records them to
// BENCH_hotpath.json). Keeping the workloads in one place guarantees the
// recorded perf trajectory measures exactly what the benchmarks measure.
package hotbench

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/sim"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/units"
)

// SweepModel is the representative sweep workload: the paper's BERT
// column at hidden 8192 with enough layers for real offload traffic.
func SweepModel() models.Config {
	return models.PaperConfig(models.BERT, 8192, 4, 16)
}

// SweepBase is the compiled-sweep base config. Two measured steps are
// the fewest in which the steady-state detector can see a match, so
// traced and untraced points simulate the same steps.
func SweepBase() exp.RunConfig {
	return exp.RunConfig{Model: SweepModel(), Strategy: exp.SSDTrain, Steps: 2}
}

// BudgetSweep runs the 9-point offload-budget sweep once: a planned
// reference run plus eight budget fractions, all through one compiled
// plan.
func BudgetSweep() error {
	base := SweepBase()
	plan, err := exp.Compile(base)
	if err != nil {
		return err
	}
	ref, err := plan.Execute(base)
	if err != nil {
		return err
	}
	for _, f := range []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1} {
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

// shareSweepPoints are the bandwidth shares every share-sweep variant
// measures. The fresh, session and pooled sweeps are compared against
// each other by cmd/bench, so they must iterate one list.
var shareSweepPoints = []float64{0, 0.5, 0.25, 0.125}

// shareSweep runs the bandwidth-share points through execute, the loop
// shared by the fresh, session and pooled sweep variants.
func shareSweep(execute func(exp.RunConfig) error) error {
	base := SweepBase()
	for _, sh := range shareSweepPoints {
		cfg := base
		cfg.SSDBandwidthShare = sh
		if err := execute(cfg); err != nil {
			return err
		}
	}
	return nil
}

// ShareSweep runs the 4-point bandwidth-share sweep once (fleet-style
// contention profiling) through one compiled plan.
func ShareSweep() error {
	plan, err := exp.Compile(SweepBase())
	if err != nil {
		return err
	}
	return shareSweep(func(cfg exp.RunConfig) error {
		_, err := plan.Execute(cfg)
		return err
	})
}

// TieredSweep runs the 8-point DRAM-capacity placement sweep once: a
// dram-first hybrid at a quarter array share, capacities stepping
// through the working set, all through one compiled plan. This is the
// hot path a fleet of hybrid tenants exercises (every profile is one
// such point), so its cost is recorded next to the engine and sweep
// benches.
func TieredSweep() error {
	base := SweepBase()
	base.SSDBandwidthShare = 0.25
	base.Strategy = exp.HybridOffload
	base.Placement = exp.PlacementDRAMFirst
	plan, err := exp.Compile(base)
	if err != nil {
		return err
	}
	ref, err := plan.Execute(base)
	if err != nil {
		return err
	}
	scale := float64(ref.EligibleBytes)
	for _, f := range []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1} {
		cfg := base
		cfg.DRAMCapacity = units.Bytes(f * scale)
		if _, err := plan.Execute(cfg); err != nil {
			return err
		}
	}
	return nil
}

// SteadyBase is the steady-state fast-path workload: the sweep model at
// 10000 steps, so the analytic extrapolation (simulate until two
// consecutive steps produce identical event signatures, synthesize the
// rest) carries essentially the whole run.
func SteadyBase() exp.RunConfig {
	base := SweepBase()
	base.Steps = 10000
	return base
}

// NewSteadyPlan compiles the 10k-step steady workload once, shared by
// the fast-path and full-simulation measurements so the BENCH_steady
// comparison is same-plan by construction.
func NewSteadyPlan() (*exp.Plan, error) {
	return exp.Compile(SteadyBase())
}

// steadyShareSweep runs the 4 bandwidth-share points at 10k steps
// through one compiled plan with the given SteadyState knob.
func steadyShareSweep(plan *exp.Plan, steady string) error {
	base := SteadyBase()
	base.SteadyState = steady
	for _, sh := range shareSweepPoints {
		cfg := base
		cfg.SSDBandwidthShare = sh
		if _, err := plan.Execute(cfg); err != nil {
			return err
		}
	}
	return nil
}

// SteadyShareSweep runs the 4-point bandwidth-share sweep at 10k steps
// on the steady-state fast path: each point simulates until its step
// signature converges and extrapolates the remaining steps analytically.
func SteadyShareSweep(plan *exp.Plan) error {
	return steadyShareSweep(plan, "")
}

// FullSimShareSweep runs the same 4-point 10k-step sweep with the fast
// path disabled — all 10000 steps of every point simulated — the
// same-run baseline BENCH_steady.json compares against.
func FullSimShareSweep(plan *exp.Plan) error {
	return steadyShareSweep(plan, "off")
}

// SteadyShareSweepVerify cross-checks the record's headline claim
// before anything is timed: every share point executed on the fast path
// must actually have extrapolated (converged, no fallback) and must
// produce a RunResult identical to the full simulation of the same
// point, field for field, once the steady-state metadata that
// necessarily differs between the two modes is neutralized.
func SteadyShareSweepVerify(plan *exp.Plan) error {
	base := SteadyBase()
	for _, sh := range shareSweepPoints {
		fast := base
		fast.SSDBandwidthShare = sh
		fres, err := plan.Execute(fast)
		if err != nil {
			return err
		}
		if fb := fres.SteadyState.Fallback; fb != "" {
			return fmt.Errorf("hotbench: steady share sweep at share %v fell back to full simulation (%s)", sh, fb)
		}
		if fres.SteadyState.ExtrapolatedSteps == 0 {
			return fmt.Errorf("hotbench: steady share sweep at share %v extrapolated nothing", sh)
		}
		slow := fast
		slow.SteadyState = "off"
		sres, err := plan.Execute(slow)
		if err != nil {
			return err
		}
		sres.Config.SteadyState = fres.Config.SteadyState
		sres.SteadyState = fres.SteadyState
		if !reflect.DeepEqual(fres, sres) {
			return fmt.Errorf("hotbench: steady share sweep at share %v: fast-path result differs from full simulation", sh)
		}
	}
	return nil
}

// NewShareSweepSession binds a reusable execution arena to the
// share-sweep plan, for benchmarking repeated Execute.
func NewShareSweepSession() (*exp.Session, error) {
	plan, err := exp.Compile(SweepBase())
	if err != nil {
		return nil, err
	}
	return exp.NewSession(plan)
}

// SessionShareSweep runs the 4-point bandwidth-share sweep once on a
// reused session — the same points as ShareSweep, with the arena reset
// in place between Executes instead of rebuilt.
func SessionShareSweep(s *exp.Session) error {
	return shareSweep(func(cfg exp.RunConfig) error {
		_, err := s.Execute(cfg)
		return err
	})
}

// tieredBase is the tiered-sweep base config (shared by the fresh and
// session variants).
func tieredBase() exp.RunConfig {
	base := SweepBase()
	base.SSDBandwidthShare = 0.25
	base.Strategy = exp.HybridOffload
	base.Placement = exp.PlacementDRAMFirst
	return base
}

// NewTieredSweepSession binds a reusable execution arena to the
// tiered-sweep plan.
func NewTieredSweepSession() (*exp.Session, error) {
	plan, err := exp.Compile(tieredBase())
	if err != nil {
		return nil, err
	}
	return exp.NewSession(plan)
}

// SessionTieredSweep runs the 8-point DRAM-capacity placement sweep once
// on a reused session — the same points as TieredSweep.
func SessionTieredSweep(s *exp.Session) error {
	base := tieredBase()
	if _, err := s.Execute(base); err != nil {
		return err
	}
	scale := float64(s.Plan().EligibleBytes())
	for _, f := range []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1} {
		cfg := base
		cfg.DRAMCapacity = units.Bytes(f * scale)
		if _, err := s.Execute(cfg); err != nil {
			return err
		}
	}
	return nil
}

// optimBase is the optimizer-offload workload: the sweep model's Adam
// FP32 states and gradient/parameter shuttle offloaded to the DRAM/NVMe
// hierarchy. Schedule and DRAM grant are cheap knobs, so one compiled
// plan serves both step schedules and every residency point.
func optimBase() exp.RunConfig {
	base := SweepBase()
	base.Strategy = exp.OptimOffload
	return base
}

// optimProbeGrant is a DRAM grant no optimizer working set reaches; the
// probe run under it reports the full working set the sweep fractions.
const optimProbeGrant = units.Bytes(1) << 50

// NewOptimSweepSession binds a reusable execution arena to the
// optimizer-offload plan.
func NewOptimSweepSession() (*exp.Session, error) {
	plan, err := exp.Compile(optimBase())
	if err != nil {
		return nil, err
	}
	return exp.NewSession(plan)
}

// sessionOptimSweep runs the 4-point optimizer-residency sweep once on a
// reused session under one step schedule: a fully DRAM-resident probe
// (doubling as the 100% point) plus three spill fractions.
func sessionOptimSweep(s *exp.Session, schedule string) error {
	base := optimBase()
	base.Schedule = schedule
	probe := base
	probe.DRAMCapacity = optimProbeGrant
	ref, err := s.Execute(probe)
	if err != nil {
		return err
	}
	scale := float64(ref.Optim.DRAMResident)
	for _, f := range []float64{0, 0.25, 0.5} {
		cfg := base
		cfg.DRAMCapacity = units.Bytes(f * scale)
		if _, err := s.Execute(cfg); err != nil {
			return err
		}
	}
	return nil
}

// SessionOptimSyncSweep runs the residency sweep under the classic
// post-backward barrier.
func SessionOptimSyncSweep(s *exp.Session) error {
	return sessionOptimSweep(s, exp.ScheduleSync)
}

// SessionOptimOverlapSweep runs the identical points with the optimizer
// pipeline draining into fwd(t+1) — cmd/bench records it against the
// same-run sync sweep, so the schedule's cost delta is same-host,
// same-arena by construction.
func SessionOptimOverlapSweep(s *exp.Session) error {
	return sessionOptimSweep(s, exp.ScheduleOverlap)
}

// SessionSweepBench is the shared session-reuse benchmark body: build
// the arena once, run one warm pass so its pools are filled, then time
// b.N sweep passes — the record measures steady-state repeated Execute.
// Both cmd/bench and the `go test -bench` benchmarks call this, so
// BENCH_session.json records exactly what the benchmarks measure.
func SessionSweepBench(b *testing.B, newSession func() (*exp.Session, error), sweep func(*exp.Session) error) {
	sess, err := newSession()
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

// EngineSchedule performs n schedule-then-drain cycles with a bounded
// queue and returns the engine for stats inspection.
func EngineSchedule(n int) *sim.Engine {
	eng := sim.NewEngine()
	fn := func() {}
	for i := 0; i < n; i++ {
		eng.After(time.Microsecond, fn)
		if eng.QueueLen() > 1024 {
			eng.Run()
		}
	}
	eng.Run()
	return eng
}

// EngineSteadyState processes n events through 64 self-rescheduling
// timers and returns the engine for stats inspection.
func EngineSteadyState(n int) *sim.Engine {
	eng := sim.NewEngine()
	remaining := n
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			eng.After(time.Microsecond, tick)
		}
	}
	for i := 0; i < 64; i++ {
		eng.After(time.Duration(i)*time.Nanosecond, tick)
	}
	eng.Run()
	if hr := eng.Stats().PoolHitRate(); n > 1000 && hr < 0.99 {
		panic(fmt.Sprintf("hotbench: pool hit rate %v, want ≈1", hr))
	}
	return eng
}

// RecorderDisabledEmit drives n span emits through a disabled recorder —
// the hot-path cost every simulated resource pays when tracing is off.
// The benchmark gate pins this path allocation-free; anything else would
// tax every untraced simulation for an observability feature it isn't
// using. A small ring keeps the constructor's one-time allocation from
// polluting the per-op numbers at low N.
func RecorderDisabledEmit(n int) *spans.Recorder {
	rec := spans.NewRecorder(16)
	track := rec.RegisterTrack("bench")
	for i := 0; i < n; i++ {
		rec.Span(track, spans.KindDMA, -1, "emit", 0, time.Microsecond, 4096, 0)
	}
	if rec.Enabled() {
		panic("hotbench: disabled recorder reports enabled")
	}
	return rec
}

// SessionTracedShareSweep runs the 4-point bandwidth-share sweep with the
// flight recorder on, on a reused session — the same points as
// SessionShareSweep, so cmd/bench records the enabled-path cost against
// the same-run untraced baseline.
func SessionTracedShareSweep(s *exp.Session) error {
	return shareSweep(func(cfg exp.RunConfig) error {
		cfg.Trace = true
		res, err := s.Execute(cfg)
		if err != nil {
			return err
		}
		if res.Trace == nil || len(res.Trace.Spans) == 0 {
			return fmt.Errorf("hotbench: traced sweep point recorded no spans")
		}
		return nil
	})
}

// PooledShareSweep runs the 4-point bandwidth-share sweep through a
// shared SessionPool — the serve-layer execution path, where arenas are
// borrowed and returned per point. cmd/bench runs it to report the
// pool's hit/miss/eviction counters next to the perf records.
func PooledShareSweep(sp *exp.SessionPool) error {
	return shareSweep(func(cfg exp.RunConfig) error {
		_, err := sp.Execute(cfg)
		return err
	})
}
