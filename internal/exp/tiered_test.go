package exp

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"ssdtrain/internal/core"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// sameMeasurement compares everything observable about two runs except
// their configs: per-step metrics, the steady-state step, the planned
// budget and the hierarchy residency peak.
func sameMeasurement(t *testing.T, label string, a, b *RunResult) {
	t.Helper()
	if a.Measured != b.Measured {
		t.Errorf("%s: measured step diverged:\n%+v\nvs\n%+v", label, a.Measured, b.Measured)
	}
	if len(a.PerStep) != len(b.PerStep) {
		t.Fatalf("%s: step counts %d vs %d", label, len(a.PerStep), len(b.PerStep))
	}
	for i := range a.PerStep {
		if a.PerStep[i] != b.PerStep[i] {
			t.Errorf("%s: step %d diverged", label, i)
		}
	}
	if a.PlannedBudget != b.PlannedBudget {
		t.Errorf("%s: planned budget %v vs %v", label, a.PlannedBudget, b.PlannedBudget)
	}
	if a.SSDPeak != b.SSDPeak {
		t.Errorf("%s: residency peak %v vs %v", label, a.SSDPeak, b.SSDPeak)
	}
}

// TestHybridZeroDRAMEqualsSSDOnly: a dram-first hierarchy with no DRAM
// capacity degenerates to the paper's NVMe-only placement, byte for
// byte.
func TestHybridZeroDRAMEqualsSSDOnly(t *testing.T) {
	cfg := smallConfig(models.BERT)
	ssd, err := Run(RunConfig{Model: cfg, Strategy: SSDTrain})
	if err != nil {
		t.Fatal(err)
	}
	for _, placement := range []Placement{PlacementDRAMFirst, PlacementSSDOnly} {
		hyb, err := Run(RunConfig{Model: cfg, Strategy: HybridOffload, Placement: placement})
		if err != nil {
			t.Fatal(err)
		}
		sameMeasurement(t, string(placement)+"/cap0 vs ssdtrain", hyb, ssd)
		if len(hyb.Tiers) != 1 || hyb.Tiers[0].Kind != core.TierNVMe {
			t.Fatalf("zero-DRAM hybrid stack = %+v, want one NVMe tier", hyb.Tiers)
		}
	}
}

// TestHybridFullDRAMEqualsCPUOffload: with the DRAM rung large enough to
// hold the whole eligible set, dram-first never spills and reproduces the
// pinned-host-memory strategy exactly — both under the Fig 3 planner and
// under a pinned budget with the capacity squeezed down to the measured
// peak residency.
func TestHybridFullDRAMEqualsCPUOffload(t *testing.T) {
	cfg := smallConfig(models.BERT)
	cpu, err := Run(RunConfig{Model: cfg, Strategy: CPUOffload})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(RunConfig{
		Model: cfg, Strategy: HybridOffload,
		Placement: PlacementDRAMFirst, DRAMCapacity: cpu.EligibleBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "dram-first/cap≥eligible vs cpu-offload", hyb, cpu)
	if len(hyb.Tiers) != 2 {
		t.Fatalf("hybrid stack has %d tiers, want 2", len(hyb.Tiers))
	}
	if hyb.Tiers[1].Written != 0 {
		t.Errorf("NVMe rung saw %v despite an all-fitting DRAM pool", hyb.Tiers[1].Written)
	}

	// Stronger form: capacity exactly at the measured peak residency,
	// with the budget pinned so both runs offload the same set.
	cpuPinned, err := Run(RunConfig{Model: cfg, Strategy: CPUOffload, Budget: cpu.PlannedBudget})
	if err != nil {
		t.Fatal(err)
	}
	hybPinned, err := Run(RunConfig{
		Model: cfg, Strategy: HybridOffload, Budget: cpu.PlannedBudget,
		Placement: PlacementDRAMFirst, DRAMCapacity: cpuPinned.SSDPeak,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "dram-first/cap=peak vs cpu-offload", hybPinned, cpuPinned)
}

// TestHybridSpillsToNVMe: a DRAM rung smaller than the offloaded set
// fills to (at most) its capacity and spills the rest to the array.
func TestHybridSpillsToNVMe(t *testing.T) {
	cfg := smallConfig(models.BERT)
	ref, err := Run(RunConfig{Model: cfg, Strategy: CPUOffload})
	if err != nil {
		t.Fatal(err)
	}
	cap := ref.SSDPeak / 3
	hyb, err := Run(RunConfig{
		Model: cfg, Strategy: HybridOffload,
		Placement: PlacementDRAMFirst, DRAMCapacity: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hyb.Tiers) != 2 {
		t.Fatalf("hybrid stack has %d tiers, want 2", len(hyb.Tiers))
	}
	dram, nvme := hyb.Tiers[0], hyb.Tiers[1]
	if dram.Kind != core.TierDRAM || nvme.Kind != core.TierNVMe {
		t.Fatalf("tier order %v/%v", dram.Kind, nvme.Kind)
	}
	if dram.Written == 0 || nvme.Written == 0 {
		t.Errorf("expected traffic on both rungs, got dram=%v nvme=%v", dram.Written, nvme.Written)
	}
	if dram.Peak > cap {
		t.Errorf("DRAM residency %v exceeds its %v capacity", dram.Peak, cap)
	}
	if hyb.Measured.IO.Leaked != 0 {
		t.Errorf("leaked %d records", hyb.Measured.IO.Leaked)
	}
}

// TestHybridSplitRoutesByRatio: the split policy keeps the DRAM share of
// placed bytes near the requested ratio.
func TestHybridSplitRoutesByRatio(t *testing.T) {
	cfg := smallConfig(models.BERT)
	for _, ratio := range []float64{0.25, 0.5, 0.75} {
		hyb, err := Run(RunConfig{
			Model: cfg, Strategy: HybridOffload,
			Placement: PlacementSplit, SplitRatio: ratio,
			DRAMCapacity: 1 << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		dram, nvme := hyb.Tiers[0], hyb.Tiers[1]
		total := dram.Written + nvme.Written
		if total == 0 {
			t.Fatalf("ratio %.2f: no offload traffic", ratio)
		}
		got := float64(dram.Written) / float64(total)
		// Per-tensor granularity keeps the greedy balance within one
		// tensor of the target.
		if math.Abs(got-ratio) > 0.15 {
			t.Errorf("ratio %.2f: DRAM share %.3f", ratio, got)
		}
	}
}

// TestPoolOverflowSurfacesThroughRun: the seed panicked the process on
// pinned-pool overflow; the typed error now aborts the run cleanly. The
// planner clamps its budgets to fit the pool, so the run pins one.
func TestPoolOverflowSurfacesThroughRun(t *testing.T) {
	cfg := smallConfig(models.BERT)
	_, err := Run(RunConfig{
		Model: cfg, Strategy: CPUOffload,
		DRAMCapacity: 64 * units.MiB, // far below one block's activations
		Budget:       units.GiB,
	})
	var ovf *core.OverflowError
	if !errors.As(err, &ovf) {
		t.Fatalf("Run error = %v, want wrapped *core.OverflowError", err)
	}
	if ovf.Capacity != 64*units.MiB {
		t.Errorf("overflow capacity = %v", ovf.Capacity)
	}
}

// shareGridCases are the hybrid and optim-offload configs of the share
// endpoint grid, placement unset: six geometries × DRAM grant × keep-last
// × SSD bandwidth share × micro-batches, 12 measured steps each.
func shareGridCases(t *testing.T) []RunConfig {
	t.Helper()
	geoms := []struct {
		arch          models.Arch
		hidden, layer int
		batch         int
	}{
		{models.BERT, 2048, 2, 4}, {models.GPT, 2048, 3, 4}, {models.T5, 2048, 4, 4},
		{models.GPT, 8192, 4, 16}, {models.BERT, 12288, 3, 16}, {models.T5, 16384, 2, 16},
	}
	var cfgs []RunConfig
	for _, g := range geoms {
		for _, strategy := range []Strategy{HybridOffload, OptimOffload} {
			base := RunConfig{Model: models.PaperConfig(g.arch, g.hidden, g.layer, g.batch), Strategy: strategy, Steps: 12}
			plan, err := Compile(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, grant := range []float64{0, 0.1, 0.25, 0.5, 1, 2} {
				for _, keep := range []int{1, 2} {
					for _, share := range []float64{0, 0.5} {
						for _, micro := range []int{1, 2} {
							cfg := base
							cfg.DRAMCapacity = units.Bytes(grant * float64(plan.EligibleBytes()))
							cfg.KeepLastModules = keep
							cfg.SSDBandwidthShare = share
							cfg.MicroBatches = micro
							cfgs = append(cfgs, cfg)
						}
					}
				}
			}
		}
	}
	return cfgs
}

// TestSplitEndpointsArePresets: a split placement at ratio 1 is the
// dram-first placement and at ratio 0 the ssd-only one, in every
// RunResult field but the config echo, fast-path outcome included, over
// a grid of hybrid and optim-offload configs whose DRAM grants run from
// none to twice the eligible bytes. So split at ratio 1 converges
// wherever dram-first does, also where NVMe takes bytes every step.
func TestSplitEndpointsArePresets(t *testing.T) {
	pool := NewSessionPool(4)
	run := func(cfg RunConfig, placement Placement, ratio float64) *RunResult {
		t.Helper()
		cfg.Placement, cfg.SplitRatio = placement, ratio
		res, err := pool.Execute(cfg)
		if err != nil {
			t.Fatalf("%v %s %s %v: %v", cfg.Model, cfg.Strategy, placement, ratio, err)
		}
		res.Config = RunConfig{}
		return res
	}
	converged, spilled := 0, 0
	for _, cfg := range shareGridCases(t) {
		first, split1 := run(cfg, PlacementDRAMFirst, 0), run(cfg, PlacementSplit, 1)
		if !reflect.DeepEqual(first, split1) {
			t.Errorf("%v %s grant %v: split 1 differs from dram-first (steady state %+v vs %+v)",
				cfg.Model, cfg.Strategy, cfg.DRAMCapacity, split1.SteadyState, first.SteadyState)
		}
		if first.SteadyState.Fallback == "" {
			converged++
			if n := len(first.Tiers); n > 1 && first.Tiers[0].Kind == core.TierDRAM && first.Tiers[1].Written > 0 {
				spilled++
			}
		}
		if ssd, split0 := run(cfg, PlacementSSDOnly, 0), run(cfg, PlacementSplit, 0); !reflect.DeepEqual(ssd, split0) {
			t.Errorf("%v %s grant %v: split 0 differs from ssd-only", cfg.Model, cfg.Strategy, cfg.DRAMCapacity)
		}
	}
	// The grid must hold converging runs whose DRAM rung spills to NVMe
	// every step: there a split at ratio 1 that folded its balance would
	// not converge.
	if spilled == 0 {
		t.Errorf("no converged dram-first run spilled to NVMe (%d converged)", converged)
	}
	t.Logf("%d configs, %d converged, %d of them spilling", len(shareGridCases(t)), converged, spilled)
}

// TestBoundedPoolNeverOverflows: a planner-driven cpu-offload run never
// overflows its bounded pool. Alg. 1 lets a micro-batch pass its budget
// by one saved tensor, so the planner leaves the largest one free.
func TestBoundedPoolNeverOverflows(t *testing.T) {
	for _, arch := range []models.Arch{models.GPT, models.BERT, models.T5} {
		for _, hidden := range []int{4096, 8192, 12288} {
			for _, layers := range []int{2, 3, 4} {
				for _, grant := range []units.Bytes{units.GiB, 4 * units.GiB} {
					cfg := RunConfig{Model: models.PaperConfig(arch, hidden, layers, 16), Strategy: CPUOffload, DRAMCapacity: grant}
					res, err := Run(cfg)
					if err != nil {
						t.Errorf("%v at %v: %v", cfg.Model, grant, err)
						continue
					}
					if res.SSDPeak > grant || res.PlannedBudget == 0 {
						t.Errorf("%v at %v: budget %v, pool peak %v", cfg.Model, grant, res.PlannedBudget, res.SSDPeak)
					}
				}
			}
		}
	}
}
