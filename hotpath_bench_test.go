// Hot-path benchmarks: the compiled-plan sweep paths whose pre-PR
// baselines are recorded in BENCH_hotpath.json (see cmd/bench, which
// runs these same workloads via internal/hotbench). The baselines were
// measured at the seed of this PR (commit d58ffb6) with the same
// workloads running through per-point exp.Run: graph rebuilt, vectors
// recomputed, budget re-planned, and all 12 steps simulated for every
// sweep point. The workloads here measure two steps per point (see
// hotbench.SweepBase), so part of each recorded ratio is the ten steps
// they do not simulate.
package ssdtrain

import (
	"testing"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/hotbench"
)

// BenchmarkCompiledSweep runs a 9-point offload-budget sweep (one planned
// run plus eight budget fractions) through Compile once + Execute per
// point.
// Pre-PR baseline (d58ffb6): 25.99 ms/op, 221509 allocs/op.
func BenchmarkCompiledSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := hotbench.BudgetSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledShareSweep runs a 4-point bandwidth-share sweep
// (fleet-style contention profiling) through one compiled plan.
// Pre-PR baseline (d58ffb6): 9.41 ms/op, 93492 allocs/op.
func BenchmarkCompiledShareSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := hotbench.ShareSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTieredSweep runs the 8-point DRAM-capacity placement sweep (a
// dram-first hybrid at a quarter array share) through one compiled
// plan — the hot path behind fleet profiling of hybrid tenants.
// Recorded to BENCH_tier.json by cmd/bench.
func BenchmarkTieredSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := hotbench.TieredSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionShareSweep runs the 4-point bandwidth-share sweep on
// one reused exp.Session: the arena (runtime, graph, offload stack) is
// built once outside the loop and reset in place per point. Recorded to
// BENCH_session.json by cmd/bench next to the fresh-Execute baseline.
func BenchmarkSessionShareSweep(b *testing.B) {
	hotbench.SessionSweepBench(b, hotbench.NewShareSweepSession, hotbench.SessionShareSweep)
}

// BenchmarkSessionTieredSweep runs the 8-point DRAM-capacity placement
// sweep on one reused exp.Session (dram-first hybrid at a quarter array
// share) — the fleet profiler's hot path with arena recycling.
func BenchmarkSessionTieredSweep(b *testing.B) {
	hotbench.SessionSweepBench(b, hotbench.NewTieredSweepSession, hotbench.SessionTieredSweep)
}

// BenchmarkOptimSyncSweep runs the 4-point optimizer-residency sweep on
// one reused exp.Session under the classic post-backward barrier.
// Recorded to BENCH_optim.json by cmd/bench as the overlap schedule's
// same-run baseline.
func BenchmarkOptimSyncSweep(b *testing.B) {
	hotbench.SessionSweepBench(b, hotbench.NewOptimSweepSession, hotbench.SessionOptimSyncSweep)
}

// BenchmarkOptimOverlapSweep runs the identical residency points with
// the optimizer pipeline draining into fwd(t+1) instead of a step
// barrier (GreedySnake's schedule).
func BenchmarkOptimOverlapSweep(b *testing.B) {
	hotbench.SessionSweepBench(b, hotbench.NewOptimSweepSession, hotbench.SessionOptimOverlapSweep)
}

// BenchmarkRecorderDisabledEmit measures the flight recorder's per-span
// emit with the recorder off — the cost every simulated resource pays on
// an untraced run. BENCH_trace.json's gate defends allocation-free.
func BenchmarkRecorderDisabledEmit(b *testing.B) {
	b.ReportAllocs()
	hotbench.RecorderDisabledEmit(b.N)
}

// BenchmarkTracedShareSweep runs the 4-point bandwidth-share sweep on one
// reused exp.Session with the flight recorder capturing — the enabled-path
// cost recorded to BENCH_trace.json against the same-run untraced sweep.
func BenchmarkTracedShareSweep(b *testing.B) {
	hotbench.SessionSweepBench(b, hotbench.NewShareSweepSession, hotbench.SessionTracedShareSweep)
}

// BenchmarkSteadyShareSweep runs the 4-point bandwidth-share sweep at
// 10000 fixed steps through one compiled plan on the steady-state fast
// path: each point simulates until two consecutive steps produce
// identical event signatures, then extrapolates the rest analytically.
// Recorded to BENCH_steady.json by cmd/bench against the same-run full
// simulation (gated at ≥10x with verified-identical results).
func BenchmarkSteadyShareSweep(b *testing.B) {
	plan, err := hotbench.NewSteadyPlan()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hotbench.SteadyShareSweep(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDedupSweep measures the exp.Sweep dedup layer on a batch with
// heavy repetition (16 requested points, 4 distinct), the shape fleet
// mixes produce. Sequential workers isolate dedup from parallelism.
func BenchmarkDedupSweep(b *testing.B) {
	b.ReportAllocs()
	base := hotbench.SweepBase()
	shares := []float64{0, 0.5, 0.25, 0.125}
	var cfgs []exp.RunConfig
	for i := 0; i < 16; i++ {
		cfg := base
		cfg.SSDBandwidthShare = shares[i%len(shares)]
		cfgs = append(cfgs, cfg)
	}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Sweep(1, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}
