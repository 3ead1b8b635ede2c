package exp

import (
	"testing"

	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// dramSweepBase is a configuration whose step time is a pure function of
// where reloads come from, so capacity interpolates monotonically: the
// budget is pinned and forwarding plus prefetching are disabled (every
// reload is a synchronous demand load on the critical path, making total
// stall linear in the per-tier reload split), and the array is derated
// to a quarter share so the NVMe rung is decisively the slow path. With
// prefetching on, the two PCIe paths overlap and a mid-capacity hybrid
// can beat BOTH endpoints — a V-shaped curve that is real concurrency,
// not an error; TestDRAMSweepOverlapBeatsEndpoints pins it.
func dramSweepBase() Spec {
	return Spec{
		Model: smallConfig(models.BERT),
		Offload: OffloadSpec{
			Budget:          units.Bytes(1) << 62,
			NoForwarding:    true,
			PrefetchAhead:   -1,
			KeepLastModules: -1,
		},
		Inject: InjectSpec{SSDBandwidthShare: 0.25},
	}
}

// TestDRAMSweepInterpolatesMonotonically is the acceptance criterion:
// dram-first step time starts exactly at the ssdtrain endpoint, ends
// exactly at the cpu-offload endpoint, and decreases monotonically as
// the pinned pool grows.
func TestDRAMSweepInterpolatesMonotonically(t *testing.T) {
	r, err := DRAMSweep(dramSweepBase(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.StepTime != r.SSDOnlyStep {
		t.Errorf("zero-capacity step %v != ssd-only endpoint %v", first.StepTime, r.SSDOnlyStep)
	}
	if last.StepTime != r.CPUStep {
		t.Errorf("full-capacity step %v != cpu-offload endpoint %v", last.StepTime, r.CPUStep)
	}
	if r.SSDOnlyStep <= r.CPUStep {
		t.Fatalf("sweep config has no dynamic range: ssd-only %v <= cpu-offload %v", r.SSDOnlyStep, r.CPUStep)
	}
	for i := 1; i < len(r.Rows); i++ {
		prev, cur := r.Rows[i-1], r.Rows[i]
		if cur.StepTime > prev.StepTime {
			t.Errorf("step time not monotone: %v at %.0f%% > %v at %.0f%%",
				cur.StepTime, cur.Frac*100, prev.StepTime, prev.Frac*100)
		}
	}
	// Traffic shifts rungs as capacity grows: all-NVMe at 0, all-DRAM at
	// full capacity.
	if first.DRAMWritten != 0 || first.NVMeWritten == 0 {
		t.Errorf("zero-capacity traffic dram=%v nvme=%v", first.DRAMWritten, first.NVMeWritten)
	}
	if last.NVMeWritten != 0 || last.DRAMWritten == 0 {
		t.Errorf("full-capacity traffic dram=%v nvme=%v", last.DRAMWritten, last.NVMeWritten)
	}
	if table := DRAMSweepTable(r).String(); len(table) == 0 {
		t.Error("empty sweep table")
	}
}

// TestDRAMSweepOverlapBeatsEndpoints pins the concurrency dividend: with
// prefetching on, a mid-capacity hybrid drains reloads over BOTH PCIe
// paths at once and beats both single-target endpoints — the payoff the
// split placement exists for.
func TestDRAMSweepOverlapBeatsEndpoints(t *testing.T) {
	base := dramSweepBase()
	base.Offload.PrefetchAhead = 0 // default: prefetch everything
	r, err := DRAMSweep(base, []float64{0.75})
	if err != nil {
		t.Fatal(err)
	}
	mid := r.Rows[0].StepTime
	if mid >= r.SSDOnlyStep || mid >= r.CPUStep {
		t.Errorf("overlapped hybrid %v does not beat endpoints (ssd %v, cpu %v)", mid, r.SSDOnlyStep, r.CPUStep)
	}
}
