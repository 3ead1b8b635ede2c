package exp

// tierPreset is one strategy's row of the offload tier stack: which
// rungs its arena builds. Every offloading strategy runs through one
// core.TieredOffloader, one placement policy and one budget planner;
// the strategies differ only in this row.
type tierPreset struct {
	// dram is the pinned host-memory rung, reached over its own PCIe
	// link named hostLink. Link names become trace track names, so each
	// strategy keeps the name it has always had.
	dram     bool
	hostLink string
	// nvme is the striped NVMe array rung over the GDS link "pcie0".
	nvme bool
	// optim adds the offloaded-optimizer rungs and update pipeline over
	// the activation rungs' links and array.
	optim bool
}

// presets is the strategy table; a strategy missing from it is unknown.
var presets = map[Strategy]tierPreset{
	NoOffload:     {},
	Recompute:     {},
	SSDTrain:      {nvme: true},
	CPUOffload:    {dram: true, hostLink: "pcie0"},
	HybridOffload: {dram: true, hostLink: "pcie-host", nvme: true},
	OptimOffload:  {dram: true, hostLink: "pcie-host", nvme: true, optim: true},
}

// stacked reports whether the preset stacks a DRAM rung over an NVMe
// rung — the only stack on which the placement knob has a choice.
func (t tierPreset) stacked() bool { return t.dram && t.nvme }

// OffloadTiers reports which activation rungs the strategy's tier stack
// builds: a pinned host-memory (DRAM) rung, an NVMe array rung, or both.
// The non-offloading strategies and unknown ones build neither.
func (s Strategy) OffloadTiers() (dram, nvme bool) {
	t := presets[s]
	return t.dram, t.nvme
}
