package exp

import (
	"fmt"
	"time"

	"ssdtrain/internal/core"
	"ssdtrain/internal/trace"
	"ssdtrain/internal/units"
)

// DRAMSweepRow is one point of the DRAM-capacity sweep: a dram-first
// hybrid run whose pinned pool is a fraction of the reference peak
// residency.
type DRAMSweepRow struct {
	// Frac is the capacity as a fraction of the reference residency peak
	// (0 = no DRAM rung, 1 = the whole working set fits).
	Frac     float64
	Capacity units.Bytes
	StepTime time.Duration
	ActPeak  units.Bytes
	// DRAMWritten/NVMeWritten split the run's offload traffic by rung.
	DRAMWritten units.Bytes
	NVMeWritten units.Bytes
	Budget      units.Bytes
}

// DRAMSweepResult is the sweep plus its two single-target endpoints: the
// zero-capacity end must coincide with the NVMe-only strategy and the
// full-capacity end with the pinned-host-memory strategy, with dram-first
// step times interpolating monotonically in between.
type DRAMSweepResult struct {
	Rows []DRAMSweepRow
	// SSDOnlyStep/CPUStep are the endpoint strategies measured with the
	// same knobs.
	SSDOnlyStep time.Duration
	CPUStep     time.Duration
	// PeakResident is the reference working set: the pinned-pool high
	// water mark of the cpu-offload endpoint, which Frac scales.
	PeakResident units.Bytes
}

// DRAMSweep measures dram-first step time against DRAM capacity for the
// base spec (model, budget, bandwidth share and ablation knobs are taken
// from base; strategy and placement are overridden). fracs defaults to
// ninths of the reference peak. All points and both endpoints run
// through one deduplicated sweep sharing a compiled plan.
func DRAMSweep(base Spec, fracs []float64) (*DRAMSweepResult, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}
	}
	cpuSpec := base
	cpuSpec.Offload.Strategy = CPUOffload
	cpuSpec.Offload.Placement = ""
	cpuSpec.Offload.DRAMCapacity = 0
	cpuSpec.Offload.SplitRatio = 0
	cpu, err := cpuSpec.Measure()
	if err != nil {
		return nil, err
	}
	peak := cpu.SSDPeak
	if peak <= 0 {
		return nil, fmt.Errorf("exp: cpu-offload reference run offloaded nothing; nothing to sweep")
	}

	ssdSpec := cpuSpec
	ssdSpec.Offload.Strategy = SSDTrain
	specs := []Spec{ssdSpec}
	for _, f := range fracs {
		s := cpuSpec
		s.Offload.Strategy = HybridOffload
		s.Offload.Placement = PlacementDRAMFirst
		s.Offload.DRAMCapacity = units.Bytes(f * float64(peak))
		specs = append(specs, s)
	}
	results, err := Sweep(0, specs)
	if err != nil {
		return nil, err
	}

	out := &DRAMSweepResult{
		SSDOnlyStep:  results[0].StepTime(),
		CPUStep:      cpu.StepTime(),
		PeakResident: peak,
	}
	for i, f := range fracs {
		res := results[i+1]
		row := DRAMSweepRow{
			Frac:     f,
			Capacity: res.Config.DRAMCapacity,
			StepTime: res.StepTime(),
			ActPeak:  res.Measured.ActPeak,
			Budget:   res.PlannedBudget,
		}
		for _, tier := range res.Tiers {
			switch tier.Kind {
			case core.TierDRAM:
				row.DRAMWritten = tier.Written
			case core.TierNVMe:
				row.NVMeWritten = tier.Written
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// DRAMSweepTable renders the sweep as text.
func DRAMSweepTable(r *DRAMSweepResult) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("DRAM-capacity sweep — dram-first step time between ssd-only (%v) and cpu-offload (%v)",
			r.SSDOnlyStep.Round(time.Millisecond), r.CPUStep.Round(time.Millisecond)),
		"capacity", "of peak", "step", "dram written", "nvme written", "act peak")
	for _, row := range r.Rows {
		t.AddRow(row.Capacity, fmt.Sprintf("%.0f%%", row.Frac*100),
			row.StepTime.Round(time.Millisecond), row.DRAMWritten, row.NVMeWritten, row.ActPeak)
	}
	return t
}
