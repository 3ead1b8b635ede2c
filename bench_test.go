// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design decisions DESIGN.md calls out.
// Each benchmark reports the figure's headline quantities as custom
// metrics, so `go test -bench=. -benchmem` prints the reproduction next
// to the timing. EXPERIMENTS.md records the paper-vs-measured comparison.
package ssdtrain

import (
	"fmt"
	"testing"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// BenchmarkFig1ScalingTrends fits the Fig 1 growth series.
func BenchmarkFig1ScalingTrends(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		f := Fig1()
		ratio = f.MemoryVsThroughput
	}
	b.ReportMetric(ratio, "memVsCompute")
}

// BenchmarkFig5Lifespan projects SSD lifespan/bandwidth at scale.
func BenchmarkFig5Lifespan(b *testing.B) {
	var minLife, maxBW float64
	for i := 0; i < b.N; i++ {
		rows := Fig5()
		minLife, maxBW = 1e9, 0
		for _, r := range rows {
			if r.Proj.LifespanYears < minLife {
				minLife = r.Proj.LifespanYears
			}
			if bw := r.Proj.WriteBandwidth.GBpsF(); bw > maxBW {
				maxBW = bw
			}
		}
	}
	b.ReportMetric(minLife, "minLifespanYears")
	b.ReportMetric(maxBW, "maxWriteGB/s")
}

// BenchmarkFig6StepTime measures the step-time overhead of SSDTrain
// across the nine evaluation points (paper: negligible).
func BenchmarkFig6StepTime(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig6(16)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Overhead > worst {
				worst = r.Overhead
			}
		}
	}
	b.ReportMetric(worst*100, "worstOverhead%")
}

// BenchmarkFig6MemoryPeak measures the activation-peak reduction (paper:
// 28–47% over the nine points).
func BenchmarkFig6MemoryPeak(b *testing.B) {
	var best, worst float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig6(16)
		if err != nil {
			b.Fatal(err)
		}
		best, worst = 0, 1
		for _, r := range rows {
			if r.PeakReduction > best {
				best = r.PeakReduction
			}
			if r.PeakReduction < worst {
				worst = r.PeakReduction
			}
		}
	}
	b.ReportMetric(best*100, "bestReduction%")
	b.ReportMetric(worst*100, "worstReduction%")
}

// BenchmarkFig7ROK sweeps the recompute-offload-keep space for both
// hidden sizes of Fig 7.
func BenchmarkFig7ROK(b *testing.B) {
	for _, hidden := range []int{12288, 14336} {
		b.Run(fmt.Sprintf("H%d", hidden), func(b *testing.B) {
			var offThr, keepThr float64
			var offPeak, keepPeak units.Bytes
			for i := 0; i < b.N; i++ {
				pts, err := Fig7(hidden, []int{4, 8, 16})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pts {
					if p.Batch != 16 {
						continue
					}
					switch p.Strategy {
					case StrategySSDTrain:
						offThr, offPeak = float64(p.Throughput), p.Peak
					case StrategyNoOffload:
						keepThr, keepPeak = float64(p.Throughput), p.Peak
					}
				}
			}
			b.ReportMetric(offThr/keepThr, "thrVsKeep")
			b.ReportMetric(float64(offPeak)/float64(keepPeak), "peakVsKeep")
		})
	}
}

// BenchmarkFig8aMicroBatchBoost decomposes the large-micro-batch
// throughput gain (paper: dominated by weight-update savings).
func BenchmarkFig8aMicroBatchBoost(b *testing.B) {
	var imp16, upd16 float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig8a([]int{2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		imp16, upd16 = last.Improvement, last.UpdateSaving
	}
	b.ReportMetric(imp16*100, "B16improvement%")
	b.ReportMetric(upd16*100, "B16updateShare%")
}

// BenchmarkFig8bUpscaling projects per-GPU write bandwidth when the
// workload scales out (paper: at or below the 2-GPU reference).
func BenchmarkFig8bUpscaling(b *testing.B) {
	var worstRatio float64
	for i := 0; i < b.N; i++ {
		ref := Fig8bReference().WriteBandwidth
		worstRatio = 0
		for _, r := range Fig8b() {
			ratio := float64(r.Proj.WriteBandwidth) / float64(ref)
			if ratio > worstRatio {
				worstRatio = ratio
			}
		}
	}
	b.ReportMetric(worstRatio, "worstVsRef")
}

// BenchmarkTable3OffloadAmount compares measured offload volume against
// the analytic estimate (paper: within a few percent).
func BenchmarkTable3OffloadAmount(b *testing.B) {
	var worstErr float64
	for i := 0; i < b.N; i++ {
		rows, err := Table3()
		if err != nil {
			b.Fatal(err)
		}
		worstErr = 0
		for _, r := range rows {
			e := float64(r.Offloaded)/float64(r.Estimate) - 1
			if e < 0 {
				e = -e
			}
			if e > worstErr {
				worstErr = e
			}
		}
	}
	b.ReportMetric(worstErr*100, "worstEstErr%")
}

// --- Ablation benches: the design decisions of DESIGN.md §4 ---

// ablationConfig is the mid-sized geometry used by the ablations.
func ablationConfig() models.Config {
	return models.PaperConfig(models.BERT, 12288, 3, 16)
}

// fullOffload disables the Fig 3 planner so the ablated mechanism is the
// only thing standing between the run and a stall.
const fullOffload = units.Bytes(1) << 62

func runAblation(b *testing.B, cfg exp.RunConfig) (stall, step, peakGB float64) {
	b.Helper()
	var res *exp.RunResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res.Measured.Stats.ComputeStall.Seconds() * 1e3,
		res.StepTime().Seconds() * 1e3,
		res.Measured.ActPeak.GBf()
}

// BenchmarkAblationForwarding disables data forwarding: unpacks of
// in-flight stores serialize behind the store and reload from the SSD.
func BenchmarkAblationForwarding(b *testing.B) {
	for _, off := range []bool{false, true} {
		b.Run(fmt.Sprintf("noForwarding=%v", off), func(b *testing.B) {
			stall, step, _ := runAblation(b, exp.RunConfig{
				Model: ablationConfig(), Strategy: exp.SSDTrain, NoForwarding: off,
				Budget: fullOffload, KeepLastModules: -1,
			})
			b.ReportMetric(stall, "stall_ms")
			b.ReportMetric(step, "step_ms")
		})
	}
}

// BenchmarkAblationDedup disables storage-stamp deduplication: repeated
// registrations of the same tensor trigger redundant I/O (most visible on
// T5, whose decoder layers all save the encoder output).
func BenchmarkAblationDedup(b *testing.B) {
	for _, off := range []bool{false, true} {
		b.Run(fmt.Sprintf("noDedup=%v", off), func(b *testing.B) {
			var written float64
			var res *exp.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = exp.Run(exp.RunConfig{
					Model:    models.PaperConfig(models.T5, 8192, 4, 16),
					Strategy: exp.SSDTrain, NoDedup: off, Budget: fullOffload,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			written = res.Measured.IO.Offloaded.GBf()
			b.ReportMetric(written, "offloadedGB")
			b.ReportMetric(res.StepTime().Seconds()*1e3, "step_ms")
		})
	}
}

// BenchmarkAblationKeepLast removes the keep-last-module rule (Fig 2 ④).
// Data forwarding rescues the timing (the in-flight copies serve backward
// from memory), so the cost of dropping the rule shows up as wasted store
// I/O: bytes written to the SSD that are never read back — pure endurance
// and bandwidth waste.
func BenchmarkAblationKeepLast(b *testing.B) {
	for _, keep := range []int{1, -1} {
		b.Run(fmt.Sprintf("keepLast=%d", keep), func(b *testing.B) {
			var res *exp.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = exp.Run(exp.RunConfig{
					Model: models.PaperConfig(models.BERT, 12288, 3, 8), Strategy: exp.SSDTrain,
					KeepLastModules: keep, Budget: fullOffload,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			io := res.Measured.IO
			b.ReportMetric(io.Offloaded.GBf(), "storedGB")
			b.ReportMetric(io.Forwarded.GBf(), "wastedStoreGB")
			b.ReportMetric(res.Measured.Stats.ComputeStall.Seconds()*1e3, "stall_ms")
		})
	}
}

// BenchmarkAblationPrefetch compares prefetch-everything (default),
// one-module lookahead, and no prefetching (demand loads only). In this
// simulator demand loads still hide behind the GPU's kernel backlog —
// exactly the paper's §III-C2 argument that "prefetching schemes are
// equivalent as long as there are always I/O tasks in the GPU job queue"
// — so the metric of interest is how many loads became blocking demand
// loads on the host.
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, ahead := range []int{0, 1, -1} {
		b.Run(fmt.Sprintf("ahead=%d", ahead), func(b *testing.B) {
			var res *exp.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = exp.Run(exp.RunConfig{
					Model: ablationConfig(), Strategy: exp.SSDTrain, PrefetchAhead: ahead,
					Budget: fullOffload,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Counters.Get("cache.demand_loads")), "demandLoads")
			b.ReportMetric(res.Measured.Stats.ComputeStall.Seconds()*1e3, "stall_ms")
			b.ReportMetric(res.StepTime().Seconds()*1e3, "step_ms")
		})
	}
}

// BenchmarkAblationGDS compares the direct GPU–SSD path against the
// CPU bounce-buffer compatibility path (§II-D).
func BenchmarkAblationGDS(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		b.Run(fmt.Sprintf("bounce=%v", disabled), func(b *testing.B) {
			stall, step, peak := runAblation(b, exp.RunConfig{
				Model: ablationConfig(), Strategy: exp.SSDTrain, DisableGDS: disabled,
			})
			b.ReportMetric(stall, "stall_ms")
			b.ReportMetric(step, "step_ms")
			b.ReportMetric(peak, "actPeakGB")
		})
	}
}

// BenchmarkAblationOffloadFraction sweeps the offload budget from 20% to
// 100% of the eligible activations, exposing the knee where I/O stops
// hiding behind compute (the Fig 3 planner's operating point).
func BenchmarkAblationOffloadFraction(b *testing.B) {
	cfg := ablationConfig()
	base, err := exp.Run(exp.RunConfig{Model: cfg, Strategy: exp.SSDTrain})
	if err != nil {
		b.Fatal(err)
	}
	eligible := base.EligibleBytes
	for _, f := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		b.Run(fmt.Sprintf("frac=%.1f", f), func(b *testing.B) {
			stall, step, peak := runAblation(b, exp.RunConfig{
				Model: cfg, Strategy: exp.SSDTrain,
				Budget: units.Bytes(f * float64(eligible)),
			})
			b.ReportMetric(stall, "stall_ms")
			b.ReportMetric(step, "step_ms")
			b.ReportMetric(peak, "actPeakGB")
		})
	}
}

// BenchmarkAblationHostCost sweeps the cache's per-hook CPU cost to test
// the paper's claim that the extra host logic stays off the critical path
// (§IV-B) — until it is made absurdly large.
func BenchmarkAblationHostCost(b *testing.B) {
	for _, us := range []int{0, 15, 100, 1000} {
		b.Run(fmt.Sprintf("hostCost=%dus", us), func(b *testing.B) {
			_, step, _ := runAblation(b, exp.RunConfig{
				Model: ablationConfig(), Strategy: exp.SSDTrain,
				HostCost: time.Duration(us) * time.Microsecond,
			})
			b.ReportMetric(step, "step_ms")
		})
	}
}

// --- Fleet benches: the cluster simulation subsystem ---

// BenchmarkFleetScheduler measures the cluster event loop under each
// scheduling policy with a warm profile cache, so the timing isolates
// scheduling + fluid replay from the (memoized) measurement runs.
func BenchmarkFleetScheduler(b *testing.B) {
	mix := FleetJobMix(FleetMixConfig{Jobs: 32, Seed: 1, MinSteps: 20, MaxSteps: 120})
	cluster := FleetClusterSpec{Nodes: 8, Node: DefaultFleetNode()}
	prof := NewFleetProfiler(0)
	// Warm the cache outside the timed region.
	if _, err := FleetSimulate(FleetConfig{Cluster: cluster, Jobs: mix, Policy: FleetFIFO, Profiler: prof}); err != nil {
		b.Fatal(err)
	}
	for _, p := range []FleetPolicy{FleetFIFO, FleetSJF, FleetBackfill} {
		b.Run(string(p), func(b *testing.B) {
			var r *FleetReport
			var err error
			for i := 0; i < b.N; i++ {
				r, err = FleetSimulate(FleetConfig{Cluster: cluster, Jobs: mix, Policy: p, Profiler: prof})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
			b.ReportMetric(r.MeanWait.Seconds(), "meanWait_s")
			b.ReportMetric(r.MinLifespanYears, "minLifespanY")
		})
	}
}

// BenchmarkFleetResultCache measures the memoized profile path: a hit
// must be orders of magnitude cheaper than the measurement run it
// replaces (reported as missRun_ms for comparison).
func BenchmarkFleetResultCache(b *testing.B) {
	node := DefaultFleetNode()
	run := exp.RunConfig{Model: PaperConfig(BERT, 8192, 4, 8), Strategy: StrategySSDTrain}
	cold := NewFleetProfiler(0)
	start := time.Now()
	if _, err := cold.Measure(run, node, 0.5, 0); err != nil {
		b.Fatal(err)
	}
	missCost := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cold.Measure(run, node, 0.5, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(missCost.Milliseconds()), "missRun_ms")
	if runs := cold.Runs(); runs != 1 {
		b.Fatalf("cache leak: %d measurement runs, want 1", runs)
	}
}

// BenchmarkCPUOffloader compares the SSD and host-memory offload targets.
func BenchmarkCPUOffloader(b *testing.B) {
	for _, strat := range []exp.Strategy{exp.SSDTrain, exp.CPUOffload} {
		b.Run(string(strat), func(b *testing.B) {
			stall, step, peak := runAblation(b, exp.RunConfig{Model: ablationConfig(), Strategy: strat})
			b.ReportMetric(stall, "stall_ms")
			b.ReportMetric(step, "step_ms")
			b.ReportMetric(peak, "actPeakGB")
		})
	}
}
