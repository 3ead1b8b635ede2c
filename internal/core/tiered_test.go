package core

import (
	"errors"
	"testing"
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/gds"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/pcie"
	"ssdtrain/internal/ssd"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// newStack builds a two-rung DRAM+NVMe hierarchy with the given DRAM
// share for direct tier tests.
func newStack(share float64, dramCap units.Bytes) (*TieredOffloader, *CPUOffloader, *SSDOffloader) {
	rt := autograd.NewRuntime(gpu.A100PCIe(), autograd.Footprint{})
	host := pcie.NewLink(rt.Rec, "pcie-host", pcie.DefaultGen4x16())
	dram := NewCPUOffloader(rt.Rec, "/dev/shm", host, dramCap)
	link := pcie.NewLink(rt.Rec, "pcie0", pcie.DefaultGen4x16())
	devs := []*ssd.Device{
		ssd.NewDevice(rt.Rec, "n0", ssd.IntelP5800X16TB()),
		ssd.NewDevice(rt.Rec, "n1", ssd.IntelP5800X16TB()),
	}
	arr := ssd.NewArray("/mnt/md1", 512*units.KiB, devs...)
	nvme := NewSSDOffloader(rt.Rec, "/mnt/md1", link, arr, gds.NewRegistry(0))
	return NewTieredOffloader(share, dram, nvme), dram, nvme
}

func mib(n int) *tensor.Tensor {
	return tensor.New("x", tensor.NewShape(n, 1<<19), tensor.FP16, tensor.GPU) // n MiB
}

func TestDRAMFirstFillsThenSpills(t *testing.T) {
	stack, dram, nvme := newStack(1, 5*units.MiB)
	// 2 MiB tensors: two fit the 5 MiB pool, the third spills.
	for i := int64(1); i <= 3; i++ {
		if _, _, err := stack.Store(TensorID{Stamp: i, ShapeHash: 1}, mib(2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := stack.TierOf(TensorID{Stamp: 1, ShapeHash: 1}); got != 0 {
		t.Errorf("first tensor on tier %d, want DRAM", got)
	}
	if got := stack.TierOf(TensorID{Stamp: 3, ShapeHash: 1}); got != 1 {
		t.Errorf("third tensor on tier %d, want NVMe spill", got)
	}
	if dram.Used() != 4*units.MiB || nvme.Used() != 2*units.MiB {
		t.Errorf("residency dram=%v nvme=%v", dram.Used(), nvme.Used())
	}
	// Deleting a DRAM block makes room for the next store.
	stack.Delete(TensorID{Stamp: 1, ShapeHash: 1})
	if _, _, err := stack.Store(TensorID{Stamp: 4, ShapeHash: 1}, mib(2), 0); err != nil {
		t.Fatal(err)
	}
	if got := stack.TierOf(TensorID{Stamp: 4, ShapeHash: 1}); got != 0 {
		t.Errorf("post-delete store on tier %d, want DRAM", got)
	}
	if stack.PeakResident() != 6*units.MiB {
		t.Errorf("stack peak = %v, want 6 MiB", stack.PeakResident())
	}
}

func TestSSDOnlyIgnoresDRAMRung(t *testing.T) {
	stack, dram, nvme := newStack(0, 1<<40)
	for i := int64(1); i <= 4; i++ {
		if _, _, err := stack.Store(TensorID{Stamp: i, ShapeHash: 1}, mib(2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if dram.Used() != 0 {
		t.Errorf("DRAM rung holds %v under ssd-only", dram.Used())
	}
	if nvme.Used() != 8*units.MiB {
		t.Errorf("NVMe rung holds %v", nvme.Used())
	}
}

func TestSplitPolicyBalance(t *testing.T) {
	stack, dram, nvme := newStack(0.5, 1<<40)
	for i := int64(1); i <= 8; i++ {
		if _, _, err := stack.Store(TensorID{Stamp: i, ShapeHash: 1}, mib(2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if dram.Used() != 8*units.MiB || nvme.Used() != 8*units.MiB {
		t.Errorf("0.5 split placed dram=%v nvme=%v", dram.Used(), nvme.Used())
	}
}

func TestTieredLoadRoutesAndErrors(t *testing.T) {
	stack, _, _ := newStack(1, 3*units.MiB)
	a := TensorID{Stamp: 1, ShapeHash: 1} // lands on DRAM
	b := TensorID{Stamp: 2, ShapeHash: 1} // spills to NVMe
	for _, id := range []TensorID{a, b} {
		if _, _, err := stack.Store(id, mib(2), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []TensorID{a, b} {
		if _, finish, _, err := stack.Load(id, time.Millisecond); err != nil || finish <= 0 {
			t.Fatalf("load %v: finish=%v err=%v", id, finish, err)
		}
	}
	var miss *MissingBlockError
	if _, _, _, err := stack.Load(TensorID{Stamp: 99, ShapeHash: 1}, 0); !errors.As(err, &miss) {
		t.Fatalf("missing load error = %v, want *MissingBlockError", err)
	}
	// A full bounded last rung surfaces the tier's typed overflow
	// instead of panicking.
	pinned := dramOnly(1 * units.MiB)
	var ovf *OverflowError
	if _, _, err := pinned.Store(a, mib(2), 0); !errors.As(err, &ovf) {
		t.Fatalf("overflow store error = %v, want *OverflowError", err)
	}
}

// dramOnly is a one-rung stack over a bounded pinned pool: nothing spills
// below it.
func dramOnly(dramCap units.Bytes) *TieredOffloader {
	_, dram, _ := newStack(1, dramCap)
	return NewTieredOffloader(1, dram)
}

// TestTieredRestoreErrorKeepsOldCopy: a refused re-store must leave the
// previous copy loadable (the error contract the cache relies on), and a
// successful re-store on the same tier must not delete the fresh file.
func TestTieredRestoreErrorKeepsOldCopy(t *testing.T) {
	stack := dramOnly(3 * units.MiB)
	dram := stack.Tiers()[0]
	id := TensorID{Stamp: 1, ShapeHash: 1}
	if _, _, err := stack.Store(id, mib(2), 0); err != nil {
		t.Fatal(err)
	}
	// Same-tier overwrite succeeds and stays loadable.
	if _, _, err := stack.Store(id, mib(2), 0); err != nil {
		t.Fatalf("same-tier re-store: %v", err)
	}
	if _, _, _, err := stack.Load(id, 0); err != nil {
		t.Fatalf("load after same-tier re-store: %v", err)
	}
	if dram.Used() != 2*units.MiB || stack.used != 2*units.MiB {
		t.Errorf("residency after overwrite: tier %v stack %v", dram.Used(), stack.used)
	}
	// Fill the pool so the next re-store overflows: the old copy survives.
	if _, _, err := stack.Store(TensorID{Stamp: 2, ShapeHash: 1}, mib(1), 0); err != nil {
		t.Fatal(err)
	}
	var ovf *OverflowError
	if _, _, err := stack.Store(id, mib(3), 0); !errors.As(err, &ovf) {
		t.Fatalf("re-store error = %v, want *OverflowError", err)
	}
	if _, _, _, err := stack.Load(id, 0); err != nil {
		t.Errorf("previous copy lost after refused re-store: %v", err)
	}
}

func TestTieredAccountingAggregates(t *testing.T) {
	stack, dram, nvme := newStack(1, 3*units.MiB)
	for i := int64(1); i <= 3; i++ {
		if _, _, err := stack.Store(TensorID{Stamp: i, ShapeHash: 1}, mib(2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if stack.PeakResident() != dram.Used()+nvme.Used() {
		t.Errorf("stack peak %v, rungs hold %v + %v", stack.PeakResident(), dram.Used(), nvme.Used())
	}
	placed := stack.PlacedBytes()
	if placed[0] != 2*units.MiB || placed[1] != 4*units.MiB {
		t.Errorf("placed = %v", placed)
	}
}

func TestPlanHierarchyBudgetDegenerates(t *testing.T) {
	gb := units.Bytes(1e9)
	plan := ModulePlan{
		SavedBytes:   []units.Bytes{3 * gb, 3 * gb, 3 * gb, 1 * gb},
		BwdTime:      []time.Duration{300 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond, 100 * time.Millisecond},
		ForwardTime:  500 * time.Millisecond,
		BackwardTime: time.Second,
	}
	single := plan
	single.ReadBandwidth = 20 * units.GBps
	single.WriteBandwidth = 20 * units.GBps
	want := PlanModuleBudget(single)

	nvme := TierPlan{WriteBandwidth: 20 * units.GBps, ReadBandwidth: 20 * units.GBps}
	dram := TierPlan{WriteBandwidth: 25 * units.GBps, ReadBandwidth: 25 * units.GBps, Capacity: 100 * gb}

	// NVMe alone ≡ the single-target plan, bit for bit.
	if got := PlanHierarchyBudget(plan, []TierPlan{nvme}); got != want {
		t.Errorf("one-tier hierarchy budget %v != module budget %v", got, want)
	}
	// A DRAM rung that holds everything reduces to DRAM-only planning.
	dramOnly := plan
	dramOnly.ReadBandwidth = 25 * units.GBps
	dramOnly.WriteBandwidth = 25 * units.GBps
	if got, want := PlanHierarchyBudget(plan, []TierPlan{dram, nvme}), PlanModuleBudget(dramOnly); got != want {
		t.Errorf("covering-DRAM hierarchy budget %v != dram module budget %v", got, want)
	}
	// A mixed hierarchy is bounded by its parts but no worse than the
	// slow rung alone.
	smallDRAM := dram
	smallDRAM.Capacity = 2 * gb
	mixed := PlanHierarchyBudget(plan, []TierPlan{smallDRAM, nvme})
	if mixed < want {
		t.Errorf("mixed budget %v below nvme-only %v", mixed, want)
	}
	if mixed == 0 {
		t.Error("mixed budget is zero")
	}
	// A bounded last rung caps the budget at 0.9 of its capacity, or
	// lower when a micro-batch could pass the budget by a saved tensor
	// larger than the tenth left free.
	pool := TierPlan{WriteBandwidth: 25 * units.GBps, ReadBandwidth: 25 * units.GBps, Capacity: 5 * gb}
	for largest, want := range map[units.Bytes]units.Bytes{0: 4.5e9, gb / 2: 4.5e9, 2 * gb: 3 * gb, 6 * gb: 0} {
		plan.LargestSaved = largest
		if got := PlanHierarchyBudget(plan, []TierPlan{pool}); got != want {
			t.Errorf("largest saved %v: budget %v on a %v pool, want %v", largest, got, pool.Capacity, want)
		}
	}
}

// TestTieredName pins the stack's diagnostic name through a rebind to a
// different stack, and that building it costs one allocation.
func TestTieredName(t *testing.T) {
	stack, dram, nvme := newStack(1, units.GiB)
	if got := stack.Name(); got != "tiered(/dev/shm,/mnt/md1)" {
		t.Errorf("name %q", got)
	}
	stack.Reset(1, nvme)
	if got := stack.Name(); got != "tiered(/mnt/md1)" {
		t.Errorf("rebound name %q", got)
	}
	tiers := []Tier{dram, nvme}
	if n := testing.AllocsPerRun(10, func() { _ = tieredName(tiers) }); n != 1 {
		t.Errorf("the name takes %v allocations, want 1", n)
	}
}
