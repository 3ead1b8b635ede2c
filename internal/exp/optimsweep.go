package exp

import (
	"fmt"
	"time"

	"ssdtrain/internal/trace"
	"ssdtrain/internal/units"
)

// OptimSweepRow is one point of the optimizer-offload sweep: the
// optim-offload strategy at a DRAM grant that is a fraction of the full
// optimizer working set, measured under both step schedules.
type OptimSweepRow struct {
	// Frac is the DRAM grant as a fraction of the full working set
	// (0 = every state on the NVMe rung, 1 = everything pinned in DRAM).
	Frac     float64
	Capacity units.Bytes
	// SyncStep/OverlapStep are the steady-state step times under the two
	// schedules; Speedup is sync/overlap − 1 (negative when the overlap
	// schedule loses to contention).
	SyncStep    time.Duration
	OverlapStep time.Duration
	Speedup     float64
	// DRAMResident/NVMeResident split the optimizer working set by rung.
	DRAMResident units.Bytes
	NVMeResident units.Bytes
	// UpdateBusy is the host update engine's busy time over the run.
	UpdateBusy time.Duration
}

// OptimSweepResult is the GreedySnake-vs-SSDTrain comparison: the
// optimizer-offload family swept across DRAM residency and schedule,
// against the activation-offload baseline measured with the same knobs.
type OptimSweepResult struct {
	Rows []OptimSweepRow
	// SSDTrainStep is the activation-offload baseline (GPU-resident
	// optimizer, the paper's own strategy).
	SSDTrainStep time.Duration
	// WorkingSet is the full optimizer working set the fractions scale:
	// FP32 states plus the per-weight gradient and parameter shuttle
	// blocks, from a fully DRAM-resident probe.
	WorkingSet units.Bytes
	// Kind is the optimizer the sweep ran ("adam" or "sgd").
	Kind string
}

// optimProbeGrant is a DRAM grant no optimizer working set reaches, so
// the probe run places every weight on the DRAM rung and reports the
// full working set.
const optimProbeGrant = units.Bytes(1) << 50

// OptimSweep measures the optim-offload strategy across DRAM residency
// fractions and both step schedules, with the SSDTrain activation
// baseline alongside (model, measurement and ablation knobs are taken
// from base; strategy, schedule and DRAM capacity are overridden). fracs
// defaults to quarters of the working set. All points run through one
// deduplicated sweep; the probe pinning the working set doubles as the
// Frac = 1 sync point.
func OptimSweep(base Spec, fracs []float64) (*OptimSweepResult, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	probeSpec := base
	probeSpec.Offload.Strategy = ""
	probeSpec.Offload.Placement = ""
	probeSpec.Offload.DRAMCapacity = optimProbeGrant
	probeSpec.Offload.SplitRatio = 0
	probeSpec.Optimizer.Offload = true
	probeSpec.Optimizer.Schedule = ScheduleSync
	probe, err := probeSpec.Measure()
	if err != nil {
		return nil, err
	}
	need := probe.Optim.DRAMResident
	if need <= 0 {
		return nil, fmt.Errorf("exp: optimizer probe run placed nothing; nothing to sweep")
	}

	ssdSpec := probeSpec
	ssdSpec.Offload.Strategy = SSDTrain
	ssdSpec.Offload.DRAMCapacity = 0
	ssdSpec.Optimizer = OptimizerSpec{}
	specs := []Spec{ssdSpec}
	for _, f := range fracs {
		for _, sched := range []string{ScheduleSync, ScheduleOverlap} {
			s := probeSpec
			s.Offload.DRAMCapacity = units.Bytes(f * float64(need))
			s.Optimizer.Schedule = sched
			specs = append(specs, s)
		}
	}
	results, err := Sweep(0, specs)
	if err != nil {
		return nil, err
	}

	out := &OptimSweepResult{
		SSDTrainStep: results[0].StepTime(),
		WorkingSet:   need,
		Kind:         probe.Optim.Kind,
	}
	for i, f := range fracs {
		sync, over := results[1+2*i], results[2+2*i]
		row := OptimSweepRow{
			Frac:         f,
			Capacity:     sync.Config.DRAMCapacity,
			SyncStep:     sync.StepTime(),
			OverlapStep:  over.StepTime(),
			Speedup:      float64(sync.StepTime())/float64(over.StepTime()) - 1,
			DRAMResident: sync.Optim.DRAMResident,
			NVMeResident: sync.Optim.NVMeResident,
			UpdateBusy:   sync.Optim.UpdateBusy,
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// OptimSweepTable renders the sweep as text.
func OptimSweepTable(r *OptimSweepResult) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("Optimizer-offload sweep (%s) — sync vs overlap step time against DRAM residency; ssdtrain baseline %v",
			r.Kind, r.SSDTrainStep.Round(time.Millisecond)),
		"dram grant", "of set", "step(sync)", "step(overlap)", "overlap gain", "dram resident", "nvme resident")
	for _, row := range r.Rows {
		t.AddRow(row.Capacity, fmt.Sprintf("%.0f%%", row.Frac*100),
			row.SyncStep.Round(time.Millisecond), row.OverlapStep.Round(time.Millisecond),
			pct(row.Speedup), row.DRAMResident, row.NVMeResident)
	}
	return t
}
