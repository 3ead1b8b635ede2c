package gpu

import (
	"testing"
	"testing/quick"
	"time"

	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

func TestSpecs(t *testing.T) {
	a := A100PCIe()
	if a.PeakFP16 != 312*units.TFLOPS || a.Memory != 40*units.GiB {
		t.Errorf("A100 spec wrong: %+v", a)
	}
	if A100SXM().Memory <= a.Memory {
		t.Error("SXM should have more memory")
	}
}

func TestRooflineRegimes(t *testing.T) {
	c := DefaultCostModel(A100PCIe())
	// A large square GEMM is compute-bound: time ≈ flops/(peak·eff).
	m, k, n := int64(16384), int64(8192), int64(8192)
	got := c.Matmul(m, k, n, 2)
	flops := 2 * float64(m) * float64(k) * float64(n)
	eff := c.MatmulMaxEff * float64(m) / (float64(m) + c.MatmulHalfRows)
	want := time.Duration(flops / (float64(c.Spec.PeakFP16) * eff) * float64(time.Second))
	if ratio := float64(got) / float64(want); ratio < 0.99 || ratio > 1.05 {
		t.Errorf("compute-bound matmul: got %v want ≈ %v", got, want)
	}
	// A skinny GEMM is memory-bound: time ≈ bytes/HBM.
	got = c.Matmul(16, 16384, 16, 2)
	bytes := 2 * int64(16*16384+16384*16+16*16)
	wantMem := units.Bandwidth(float64(c.Spec.HBMBandwidth) * c.MemEff).TimeFor(units.Bytes(bytes))
	if got < wantMem {
		t.Errorf("memory-bound matmul faster than HBM allows: %v < %v", got, wantMem)
	}
}

func TestMemoryBound(t *testing.T) {
	c := DefaultCostModel(A100PCIe())
	d1 := c.MemoryBound(units.GB)
	d2 := c.MemoryBound(2 * units.GB)
	if d2 <= d1 {
		t.Error("memory-bound time not monotone")
	}
	// 1 GB at ~1244 GB/s ≈ 0.8 ms.
	if d1 < 700*time.Microsecond || d1 > 900*time.Microsecond {
		t.Errorf("1GB elementwise = %v", d1)
	}
}

func TestCollectiveCosts(t *testing.T) {
	c := DefaultCostModel(A100PCIe())
	if c.AllReduceTime(units.GB, 1) != 0 {
		t.Error("tp=1 all-reduce should be free")
	}
	t2 := c.AllReduceTime(units.GB, 2)
	t8 := c.AllReduceTime(units.GB, 8)
	if t8 <= t2 {
		t.Error("all-reduce should cost more at higher degree")
	}
}

// Property: matmul efficiency (and thus achieved FLOP/s) grows with the
// row count — the small-micro-batch penalty of Fig 8a.
func TestMatmulEfficiencyMonotoneProperty(t *testing.T) {
	c := DefaultCostModel(A100PCIe())
	f := func(a, b uint16) bool {
		m1 := int64(a%4096) + 64
		m2 := m1 + int64(b%4096) + 1
		k, n := int64(4096), int64(4096)
		t1 := c.Matmul(m1, k, n, 2)
		t2 := c.Matmul(m2, k, n, 2)
		// Achieved rate = flops/time must not decrease with m.
		r1 := 2 * float64(m1) * float64(k) * float64(n) / t1.Seconds()
		r2 := 2 * float64(m2) * float64(k) * float64(n) / t2.Seconds()
		return r2 >= r1*0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorPeaks(t *testing.T) {
	a := NewAllocator(units.GiB, 0)
	s1 := tensor.NewStorage(400*units.MiB, tensor.GPU)
	s2 := tensor.NewStorage(300*units.MiB, tensor.GPU)
	s3 := tensor.NewStorage(200*units.MiB, tensor.GPU)
	a.Alloc(0, s1, ClassWeights)
	a.Alloc(time.Millisecond, s2, ClassActivations)
	a.Free(2*time.Millisecond, s2)
	a.Alloc(3*time.Millisecond, s3, ClassActivations)
	rep := a.Finalize(nil)
	if rep.PeakTotal != 700*units.MiB {
		t.Errorf("peak total = %v", rep.PeakTotal)
	}
	if rep.PeakByClass[ClassActivations] != 300*units.MiB {
		t.Errorf("activation peak = %v", rep.PeakByClass[ClassActivations])
	}
	if rep.PeakAt != time.Millisecond {
		t.Errorf("peak at %v", rep.PeakAt)
	}
	if rep.Overflowed {
		t.Error("should not overflow 1 GiB")
	}
	// Class levels at the total peak must sum to the peak.
	var sum units.Bytes
	for _, v := range rep.ClassAtTotalPeak {
		sum += v
	}
	if sum != rep.PeakTotal {
		t.Errorf("class sum %v != peak %v", sum, rep.PeakTotal)
	}
}

func TestAllocatorOutOfOrderTimestamps(t *testing.T) {
	// The executor frees storages at times computed out of host order;
	// Finalize must sort them.
	a := NewAllocator(units.GiB, 0)
	s1 := tensor.NewStorage(100, tensor.GPU)
	s2 := tensor.NewStorage(100, tensor.GPU)
	a.Alloc(5*time.Millisecond, s1, ClassActivations)
	a.Alloc(time.Millisecond, s2, ClassActivations) // earlier, recorded later
	a.Free(6*time.Millisecond, s1)
	a.Free(5500*time.Microsecond, s2) // overlaps s1's [5ms, 6ms) interval
	rep := a.Finalize(nil)
	if rep.PeakTotal != 200 {
		t.Errorf("peak = %v (events not time-sorted?)", rep.PeakTotal)
	}
	// And a non-overlapping pair folds to a peak of one tensor.
	a2 := NewAllocator(units.GiB, 0)
	s3 := tensor.NewStorage(100, tensor.GPU)
	s4 := tensor.NewStorage(100, tensor.GPU)
	a2.Alloc(5*time.Millisecond, s3, ClassActivations)
	a2.Alloc(time.Millisecond, s4, ClassActivations)
	a2.Free(6*time.Millisecond, s3)
	a2.Free(2*time.Millisecond, s4)
	if rep2 := a2.Finalize(nil); rep2.PeakTotal != 100 {
		t.Errorf("disjoint peak = %v", rep2.PeakTotal)
	}
}

func TestAllocatorStreamOrderedFreeClamp(t *testing.T) {
	a := NewAllocator(units.GiB, 0)
	s := tensor.NewStorage(100, tensor.GPU)
	a.Alloc(5*time.Millisecond, s, ClassWorkspace)
	// Host dropped the ref before the kernel ran; clamped to alloc time.
	a.Free(time.Millisecond, s)
	rep := a.Finalize(nil)
	if rep.PeakTotal != 100 {
		t.Errorf("peak = %v", rep.PeakTotal)
	}
}

func TestAllocatorDoubleAllocPanics(t *testing.T) {
	a := NewAllocator(units.GiB, 0)
	s := tensor.NewStorage(100, tensor.GPU)
	a.Alloc(0, s, ClassWeights)
	defer func() {
		if recover() == nil {
			t.Error("double alloc did not panic")
		}
	}()
	a.Alloc(0, s, ClassWeights)
}

func TestAllocatorUnknownFreePanics(t *testing.T) {
	a := NewAllocator(units.GiB, 0)
	defer func() {
		if recover() == nil {
			t.Error("unknown free did not panic")
		}
	}()
	a.Free(0, tensor.NewStorage(1, tensor.GPU))
}

func TestAllocatorOverflowDetection(t *testing.T) {
	a := NewAllocator(100, 0)
	s := tensor.NewStorage(200, tensor.GPU)
	a.Alloc(0, s, ClassActivations)
	rep := a.Finalize(nil)
	if !rep.Overflowed {
		t.Error("overflow not detected")
	}
}

type countingHook struct{ allocs, frees int }

func (h *countingHook) OnAlloc(*tensor.Storage) { h.allocs++ }
func (h *countingHook) OnFree(*tensor.Storage)  { h.frees++ }

func TestAllocatorHooks(t *testing.T) {
	a := NewAllocator(units.GiB, 0)
	h := &countingHook{}
	a.AddHook(h)
	s := tensor.NewStorage(100, tensor.GPU)
	a.Alloc(0, s, ClassWeights)
	a.Free(time.Millisecond, s)
	if h.allocs != 1 || h.frees != 1 {
		t.Errorf("hook calls: %+v", h)
	}
	if a.LiveBytes() != 0 || a.LiveCount() != 0 {
		t.Error("leak tracking wrong")
	}
}

// Property: for any interleaving of allocs and frees, peak ≥ final level
// and peak ≥ every class peak.
func TestAllocatorPeakProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewAllocator(units.Bytes(1)<<40, 0)
		var storages []*tensor.Storage
		at := time.Duration(0)
		for i, sz := range sizes {
			s := tensor.NewStorage(units.Bytes(sz)+1, tensor.GPU)
			a.Alloc(at, s, Class(i%int(classCount)))
			storages = append(storages, s)
			at += time.Microsecond
			if i%3 == 2 {
				a.Free(at, storages[len(storages)-2])
				storages = append(storages[:len(storages)-2], storages[len(storages)-1])
				at += time.Microsecond
			}
		}
		rep := a.Finalize(nil)
		var classMax units.Bytes
		for _, v := range rep.PeakByClass {
			if v > classMax {
				classMax = v
			}
		}
		return rep.PeakTotal >= classMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
