package exp

import (
	"slices"
	"testing"

	"ssdtrain/internal/core"
)

// Track groups of the strategy arenas, in the order the arena builds
// them. Link and tier names become trace track names, so they are part
// of each strategy's observable layout.
var (
	gpuTracks = []string{"gpu.mem", "gpu.compute"}
	// The DRAM rung of the hybrid stacks drains over its own host link.
	hostTracks = []string{"pcie-host.down", "pcie-host.up", "/dev/shm.store", "/dev/shm.load"}
	// The NVMe rung drains over the GDS link into the striped array.
	gdsTracks = []string{
		"pcie0.down", "pcie0.up",
		"nvme0.write", "nvme0.read", "nvme1.write", "nvme1.read",
		"nvme2.write", "nvme2.read", "nvme3.write", "nvme3.read",
		"/mnt/md1.store", "/mnt/md1.load",
	}
	optimTracks = []string{"optim-dram.store", "optim-dram.load", "optim-nvme.store", "optim-nvme.load", "optim.update"}
)

// tierID is the part of a TierUsage that names the rung.
type tierID struct {
	Name string
	Kind core.TierKind
}

// TestStrategyArenaLayout pins each strategy's arena: the flight
// recorder's track table (link, device and tier-queue names in build
// order) and the rungs RunResult.Tiers reports, for a traced run.
// cpu-offload's lone host link is named "pcie0", the same name as the
// GDS link of the NVMe strategies; the hybrid stacks name theirs
// "pcie-host".
func TestStrategyArenaLayout(t *testing.T) {
	dram := tierID{"/dev/shm", core.TierDRAM}
	nvme := tierID{"/mnt/md1", core.TierNVMe}
	optimDRAM := tierID{"optim-dram", core.TierDRAM}
	optimNVMe := tierID{"optim-nvme", core.TierNVMe}
	hybridTracks := slices.Concat(gpuTracks, hostTracks, gdsTracks)
	optimAll := slices.Concat(hybridTracks, optimTracks)

	cpuBounded := smallCfg(CPUOffload)
	cpuBounded.DRAMCapacity = 1 << 30
	hybridZero := smallCfg(HybridOffload)
	hybridSmall := smallCfg(HybridOffload)
	hybridSmall.DRAMCapacity = 64 << 20
	hybridSplit := smallCfg(HybridOffload)
	hybridSplit.Placement = PlacementSplit
	hybridSplit.SplitRatio = 0.5
	hybridSplit.DRAMCapacity = 256 << 20
	hybridSSDOnly := smallCfg(HybridOffload)
	hybridSSDOnly.Placement = PlacementSSDOnly
	hybridSSDOnly.DRAMCapacity = 256 << 20
	optimSync := smallCfg(OptimOffload)
	optimOverlap := smallCfg(OptimOffload)
	optimOverlap.Schedule = ScheduleOverlap
	optimOverlap.DRAMCapacity = optimProbeGrant

	cases := []struct {
		name   string
		cfg    RunConfig
		tracks []string
		tiers  []tierID
	}{
		{"no-offload", smallCfg(NoOffload), gpuTracks, nil},
		{"recompute", smallCfg(Recompute), gpuTracks, nil},
		{"ssdtrain", smallCfg(SSDTrain), slices.Concat(gpuTracks, gdsTracks), []tierID{nvme}},
		{"cpu-offload/bounded", cpuBounded,
			[]string{"gpu.mem", "gpu.compute", "pcie0.down", "pcie0.up", "/dev/shm.store", "/dev/shm.load"},
			[]tierID{dram}},
		// A zero grant leaves the DRAM rung wired but out of the stack.
		{"hybrid/zero-grant", hybridZero, hybridTracks, []tierID{nvme}},
		{"hybrid/small-grant", hybridSmall, hybridTracks, []tierID{dram, nvme}},
		{"hybrid/split", hybridSplit, hybridTracks, []tierID{dram, nvme}},
		{"hybrid/ssd-only", hybridSSDOnly, hybridTracks, []tierID{dram, nvme}},
		// The optimizer rungs report after the activation rungs; the sync
		// run's zero grant leaves no DRAM for activations.
		{"optim-offload/sync", optimSync, optimAll, []tierID{nvme, optimDRAM, optimNVMe}},
		{"optim-offload/overlap", optimOverlap, optimAll, []tierID{dram, nvme, optimDRAM, optimNVMe}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Trace = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Trace.Tracks, c.tracks) {
				t.Errorf("tracks:\n got %q\nwant %q", res.Trace.Tracks, c.tracks)
			}
			var tiers []tierID
			for _, tu := range res.Tiers {
				tiers = append(tiers, tierID{tu.Name, tu.Kind})
			}
			if !slices.Equal(tiers, c.tiers) {
				t.Errorf("tiers: got %v, want %v", tiers, c.tiers)
			}
		})
	}
}
