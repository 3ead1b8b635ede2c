package core

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/gds"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/pcie"
	"ssdtrain/internal/ssd"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

func TestGetIDStableAcrossViews(t *testing.T) {
	ids := NewIDSource()
	w := tensor.NewWeight("w", tensor.NewShape(64, 32), tensor.FP16, tensor.GPU)
	id1 := ids.GetID(w.Transpose())
	id2 := ids.GetID(w.Transpose()) // a NEW view object each time
	if id1 != id2 {
		t.Errorf("transpose IDs differ: %v vs %v", id1, id2)
	}
	// The base tensor shares the stamp but not the shape key.
	idBase := ids.GetID(w)
	if idBase.Stamp != id1.Stamp {
		t.Error("views have different stamps")
	}
	if idBase.ShapeHash == id1.ShapeHash {
		t.Error("different shapes share a shape key")
	}
}

func TestGetIDNoAddressCollision(t *testing.T) {
	// Two tensors of identical shape must get different IDs even if one
	// replaced the other (the address-reuse hazard get_id prevents).
	ids := NewIDSource()
	a := tensor.New("a", tensor.NewShape(16), tensor.FP16, tensor.GPU)
	idA := ids.GetID(a)
	b := tensor.New("b", tensor.NewShape(16), tensor.FP16, tensor.GPU)
	idB := ids.GetID(b)
	if idA == idB {
		t.Error("distinct storages collided")
	}
}

func TestFileNameStable(t *testing.T) {
	id := TensorID{Stamp: 7, ShapeHash: 0x16a1024}
	if id.FileName() != id.FileName() {
		t.Error("file name not deterministic")
	}
}

// testRig wires a runtime plus SSD offloader for cache tests.
type testRig struct {
	rt  *autograd.Runtime
	off *SSDOffloader
}

func newRig() *testRig {
	rt := autograd.NewRuntime(gpu.A100PCIe(), autograd.Footprint{})
	link := pcie.NewLink(rt.Rec, "pcie0", pcie.DefaultGen4x16())
	devs := []*ssd.Device{
		ssd.NewDevice(rt.Rec, "n0", ssd.IntelP5800X16TB()),
		ssd.NewDevice(rt.Rec, "n1", ssd.IntelP5800X16TB()),
	}
	arr := ssd.NewArray("/mnt/md1", 512*units.KiB, devs...)
	off := NewSSDOffloader(rt.Rec, "/mnt/md1", link, arr, gds.NewRegistry(0))
	return &testRig{rt: rt, off: off}
}

// noLimit is a budget no test reaches: every eligible activation
// offloads. (A zero budget offloads nothing.)
const noLimit = units.Bytes(1) << 62

func newCache(rig *testRig, cfg Config) *TensorCache {
	cfg.Runtime = rig.rt
	cfg.Offloader = rig.off
	return NewTensorCache(cfg)
}

// bigTensor allocates a GPU activation above the small-tensor threshold
// and registers it with the allocator.
func bigTensor(rig *testRig, name string, at time.Duration) *tensor.Tensor {
	x := tensor.New(name, tensor.NewShape(1024, 1024, 2), tensor.FP16, tensor.GPU)
	rig.rt.Life.Alloc(at, x.Storage(), gpu.ClassActivations)
	return x
}

func TestPackEarlyReturns(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{})
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)

	// CPU tensors pass through.
	cpu := tensor.New("cpu", tensor.NewShape(1<<21), tensor.FP16, tensor.CPU)
	if p := c.Pack(cpu, 0, 0); p != autograd.Packed(cpu) {
		t.Error("CPU tensor not passed through")
	}
	// Small tensors pass through (under 2^20 elements).
	small := tensor.New("small", tensor.NewShape(1024), tensor.FP16, tensor.GPU)
	if p := c.Pack(small, 0, 0); p != autograd.Packed(small) {
		t.Error("small tensor not passed through")
	}
	// Registered weights (via their transposed views) pass through.
	w := tensor.NewWeight("w", tensor.NewShape(2048, 1024), tensor.FP16, tensor.GPU)
	c.RegisterWeights([]*tensor.Tensor{w})
	if p := c.Pack(w.Transpose(), 0, 0); p != autograd.Packed(w.Transpose()) {
		if _, isHandle := p.(handle); isHandle {
			t.Error("weight view was cached instead of passed through")
		}
	}
	if rig.rt.Counters.Get("cache.weight_skips") == 0 {
		t.Error("weight skip not counted")
	}
}

func TestPackOffloadAndReload(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{Budget: noLimit, Verify: true})
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)
	m := autograd.NewModule("layer0")
	c.ForwardPre(m, 0)
	x := bigTensor(rig, "x", 0)
	x.Storage().Materialize(11)
	sum := x.Storage().Checksum()

	produced := 10 * time.Millisecond
	p := c.Pack(x, produced, 0)
	h, ok := p.(handle)
	if !ok {
		t.Fatal("big activation not cached")
	}
	if !h.rec.offloaded {
		t.Fatal("activation not offloaded")
	}
	if h.rec.storeStart < produced {
		t.Errorf("store started %v before the producing kernel finished %v", h.rec.storeStart, produced)
	}
	c.ForwardPost(m, 0)

	// Unpack long after the store finished → reload from SSD.
	c.Phase(autograd.PhaseBackward, 0, time.Second)
	got, ready := c.Unpack(p, time.Second)
	if got == x {
		t.Error("expected a reload buffer, got the original")
	}
	if ready <= time.Second {
		t.Error("reload should take time")
	}
	if got.Storage().Checksum() != sum {
		t.Error("reload payload mismatch")
	}
	c.Consumed(p, ready+time.Millisecond)
	c.Phase(autograd.PhaseStepEnd, 0, 2*time.Second)
	if c.LastStep().Leaked != 0 {
		t.Errorf("leaked %d records", c.LastStep().Leaked)
	}
	if c.LastStep().Reloaded != x.Bytes() {
		t.Errorf("reloaded = %v", c.LastStep().Reloaded)
	}
}

func TestForwardingWhileStoreInFlight(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{Budget: noLimit})
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)
	m := autograd.NewModule("layer0")
	c.ForwardPre(m, 0)
	x := bigTensor(rig, "x", 0)
	p := c.Pack(x, 0, 0)
	c.ForwardPost(m, 0)
	h := p.(handle)
	// Unpack while the store is still in flight (hostNow < storeFinish).
	before := h.rec.storeFinish - time.Microsecond
	c.Phase(autograd.PhaseBackward, 0, before)
	got, ready := c.Unpack(p, before)
	if got != x || ready != before {
		t.Error("forwarding should return the in-memory original instantly")
	}
	if !h.rec.forwarded {
		t.Error("record not marked forwarded")
	}
	if c.cur.Forwarded != x.Bytes() {
		t.Errorf("forwarded bytes = %v", c.cur.Forwarded)
	}
	// The original storage survives until both the consumer and the store
	// are done.
	c.Consumed(p, before)
	c.Phase(autograd.PhaseStepEnd, 0, time.Second)
	if x.Storage().Freed() == false {
		// Released via Lifetimes; executor refs (producer) still pending
		// in this synthetic setup — release ours.
		rig.rt.Life.Release(x.Storage(), time.Second)
	}
}

func TestDedupSecondPackNoIO(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{Budget: noLimit})
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)
	m := autograd.NewModule("layer0")
	c.ForwardPre(m, 0)
	x := bigTensor(rig, "x", 0)
	p1 := c.Pack(x, 0, 0)
	written := rig.off.BytesWritten()
	p2 := c.Pack(x, 0, time.Microsecond)
	if rig.off.BytesWritten() != written {
		t.Error("second pack of the same tensor triggered I/O")
	}
	if p1.(handle).rec != p2.(handle).rec {
		t.Error("dedup returned different records")
	}
	if c.cur.DedupHits != 1 {
		t.Errorf("dedup hits = %d", c.cur.DedupHits)
	}
	// Both consumers must finish before release.
	c.Phase(autograd.PhaseBackward, 0, time.Second)
	c.Unpack(p1, time.Second)
	c.Consumed(p1, time.Second)
	rec := p1.(handle).rec
	if rec.consumed != 1 {
		t.Errorf("consumed = %d", rec.consumed)
	}
	c.Consumed(p2, time.Second)
	c.Phase(autograd.PhaseStepEnd, 0, 2*time.Second)
	if c.LastStep().Leaked != 0 {
		t.Error("leak after dual consumption")
	}
}

func TestBudgetKeepsTail(t *testing.T) {
	rig := newRig()
	one := units.Bytes(1024 * 1024 * 2 * 2) // bigTensor size
	c := newCache(rig, Config{Budget: one + one/2})
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)
	m := autograd.NewModule("layer0")
	c.ForwardPre(m, 0)
	p1 := c.Pack(bigTensor(rig, "a", 0), 0, 0)
	p2 := c.Pack(bigTensor(rig, "b", 0), 0, 0) // budget not yet reached (1 < 1.5)
	p3 := c.Pack(bigTensor(rig, "c", 0), 0, 0) // reached: keep
	if !p1.(handle).rec.offloaded || !p2.(handle).rec.offloaded {
		t.Error("under-budget tensors kept")
	}
	if p3.(handle).rec.offloaded {
		t.Error("over-budget tensor offloaded")
	}
	if c.cur.Kept != one {
		t.Errorf("kept bytes = %v", c.cur.Kept)
	}
}

func TestInBackwardKeeps(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{Budget: noLimit})
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)
	c.Phase(autograd.PhaseBackward, 0, 0)
	m := autograd.NewModule("ckpt")
	c.BackwardPre(m, 0)
	p := c.Pack(bigTensor(rig, "recomputed", 0), 0, 0)
	if p.(handle).rec.offloaded {
		t.Error("tensor packed during backward (recomputation) was offloaded")
	}
}

func TestKeepLastModulesLearned(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{Budget: noLimit, KeepLastModules: 1})
	m0, m1 := autograd.NewModule("l0"), autograd.NewModule("l1")
	step := func(expectKeepLast bool) {
		c.Phase(autograd.PhaseStepStart, 0, 0)
		c.Phase(autograd.PhaseForward, 0, 0)
		c.ForwardPre(m0, 0)
		pa := c.Pack(bigTensor(rig, "a", 0), 0, 0)
		c.ForwardPost(m0, 0)
		c.ForwardPre(m1, 0)
		pb := c.Pack(bigTensor(rig, "b", 0), 0, 0)
		c.ForwardPost(m1, 0)
		if got := !pb.(handle).rec.offloaded; got != expectKeepLast {
			t.Errorf("keep-last = %v, want %v", got, expectKeepLast)
		}
		c.Phase(autograd.PhaseBackward, 0, time.Second)
		for _, p := range []autograd.Packed{pb, pa} {
			c.Unpack(p, time.Second)
			c.Consumed(p, time.Second)
		}
		c.Phase(autograd.PhaseStepEnd, 0, 2*time.Second)
	}
	step(false) // first step: module order unknown, everything offloads
	step(true)  // second step: last module learned and kept
}

func TestPrefetchIssuesLoads(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{Budget: noLimit})
	m0, m1 := autograd.NewModule("l0"), autograd.NewModule("l1")
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)
	c.ForwardPre(m0, 0)
	pa := c.Pack(bigTensor(rig, "a", 0), 0, 0)
	c.ForwardPost(m0, 0)
	c.ForwardPre(m1, 0)
	pb := c.Pack(bigTensor(rig, "b", 0), 0, 0)
	c.ForwardPost(m1, 0)
	// Enter m1's backward well after stores completed: m0's records get
	// prefetched.
	at := time.Second
	c.Phase(autograd.PhaseBackward, 0, at)
	c.BackwardPre(m1, at)
	if !pa.(handle).rec.loading {
		t.Error("prefetch did not load the upcoming module")
	}
	// Unpacking the prefetched tensor returns the load finish time.
	_, ready := c.Unpack(pa, at)
	if ready != pa.(handle).rec.loadFinish {
		t.Errorf("unpack ready %v != load finish %v", ready, pa.(handle).rec.loadFinish)
	}
	if rig.rt.Counters.Get("cache.demand_loads") != 0 {
		t.Error("prefetched load counted as demand load")
	}
	// pb was never prefetched (it is the current module): demand load.
	c.Unpack(pb, at+time.Second)
	if rig.rt.Counters.Get("cache.demand_loads") != 1 {
		t.Error("demand load not counted")
	}
}

func TestSweepCountsLeaks(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{Budget: noLimit})
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)
	m := autograd.NewModule("l0")
	c.ForwardPre(m, 0)
	c.Pack(bigTensor(rig, "a", 0), 0, 0) // never unpacked or consumed
	c.ForwardPost(m, 0)
	c.Phase(autograd.PhaseStepEnd, 0, time.Second)
	if c.LastStep().Leaked != 1 {
		t.Errorf("leaked = %d, want 1", c.LastStep().Leaked)
	}
	// The offload file was cleaned up.
	if rig.off.BlockStore().Count() != 0 {
		t.Error("offload file survived the sweep")
	}
}

func TestSSDOffloaderTiming(t *testing.T) {
	rig := newRig()
	x := tensor.New("x", tensor.NewShape(1<<20), tensor.FP16, tensor.GPU) // 2 MiB
	id := TensorID{Stamp: 1, ShapeHash: 0x100000}
	start, finish, err := rig.off.Store(id, x, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if start < 5*time.Millisecond {
		t.Error("store started before ready time")
	}
	want := rig.off.WriteBandwidth().TimeFor(x.Bytes())
	if finish-start < want {
		t.Errorf("store too fast: %v < %v", finish-start, want)
	}
	// FIFO: a second store queues.
	_, f2, err := rig.off.Store(TensorID{Stamp: 2, ShapeHash: 0x100000}, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f2 <= finish {
		t.Error("store queue not FIFO")
	}
	// Loads come back.
	ls, lf, _, err := rig.off.Load(id, finish)
	if err != nil {
		t.Fatal(err)
	}
	if ls < finish || lf <= ls {
		t.Errorf("load times wrong: %v %v", ls, lf)
	}
	rig.off.Delete(id)
	rig.off.Delete(id) // idempotent
}

func TestOffloaderBouncePath(t *testing.T) {
	rig := newRig()
	x := tensor.New("x", tensor.NewShape(1<<22), tensor.FP16, tensor.GPU)
	// Unregistered: bounce at half bandwidth.
	_, f1, _ := rig.off.Store(TensorID{Stamp: 1, ShapeHash: 0xa}, x, 0)
	rig.off.Registry().Register(x.Storage())
	_, f2, _ := rig.off.Store(TensorID{Stamp: 2, ShapeHash: 0xb}, x, 0)
	d1 := f1
	d2 := f2 - f1
	if d2 >= d1 {
		t.Errorf("registered store %v not faster than bounce %v", d2, d1)
	}
}

func TestCPUOffloaderPool(t *testing.T) {
	rt := autograd.NewRuntime(gpu.A100PCIe(), autograd.Footprint{})
	link := pcie.NewLink(rt.Rec, "pcie0", pcie.DefaultGen4x16())
	o := NewCPUOffloader(rt.Rec, "/dev/shm", link, 0)
	x := tensor.New("x", tensor.NewShape(1<<20), tensor.FP16, tensor.GPU)
	o.Store(TensorID{Stamp: 1, ShapeHash: 0xa}, x, 0)
	if o.PeakResident() != x.Bytes() {
		t.Errorf("profiling peak = %v", o.PeakResident())
	}
	o.Delete(TensorID{Stamp: 1, ShapeHash: 0xa})
	// Fix the pool just under two tensors; one fits, a second overflows
	// with a typed error (the seed panicked the whole process here).
	o.SetCapacity(x.Bytes() + x.Bytes()/2)
	if _, _, err := o.Store(TensorID{Stamp: 2, ShapeHash: 0xb}, x, 0); err != nil {
		t.Fatalf("in-capacity store failed: %v", err)
	}
	_, _, err := o.Store(TensorID{Stamp: 3, ShapeHash: 0xc}, x, 0)
	var ovf *OverflowError
	if !errors.As(err, &ovf) {
		t.Fatalf("pool overflow error = %v, want *OverflowError", err)
	}
	if ovf.Tier != "/dev/shm" || ovf.Need != x.Bytes() || ovf.Capacity != x.Bytes()+x.Bytes()/2 {
		t.Errorf("overflow detail = %+v", ovf)
	}
	// Loads of evicted/missing buffers are typed errors too, not panics.
	_, _, _, err = o.Load(TensorID{Stamp: 9, ShapeHash: 0xf}, 0)
	var miss *MissingBlockError
	if !errors.As(err, &miss) {
		t.Fatalf("missing-buffer load error = %v, want *MissingBlockError", err)
	}
}

func TestPlanModuleBudget(t *testing.T) {
	gb := units.Bytes(1e9)
	plan := ModulePlan{
		SavedBytes:     []units.Bytes{3 * gb, 3 * gb, 3 * gb, 1 * gb},
		BwdTime:        []time.Duration{300 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond, 100 * time.Millisecond},
		ReadBandwidth:  20 * units.GBps,
		WriteBandwidth: 20 * units.GBps,
		ForwardTime:    500 * time.Millisecond,
		BackwardTime:   time.Second,
	}
	budget := PlanModuleBudget(plan)
	// The last module is never offloaded.
	if budget > 9*gb {
		t.Errorf("budget %v includes the last module", budget)
	}
	if budget == 0 {
		t.Error("plentiful bandwidth should allow offloading")
	}
	// Zero read bandwidth → nothing can reload → no offload.
	starved := plan
	starved.ReadBandwidth = 0
	if PlanModuleBudget(starved) != 0 {
		t.Error("zero read bandwidth should plan zero budget")
	}
}

// Property: the planned budget never exceeds the offloadable prefix and
// shrinks (weakly) as read bandwidth shrinks.
func TestPlanBudgetMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16, bwMBs uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		plan := ModulePlan{ReadBandwidth: units.Bandwidth(bwMBs%2000+1) * units.MBps}
		var totalNoLast units.Bytes
		for i, s := range sizes {
			b := units.Bytes(s)*units.MB + units.MB
			plan.SavedBytes = append(plan.SavedBytes, b)
			plan.BwdTime = append(plan.BwdTime, 10*time.Millisecond)
			if i < len(sizes)-1 {
				totalNoLast += b
			}
		}
		b1 := PlanModuleBudget(plan)
		if b1 > totalNoLast {
			return false
		}
		plan.ReadBandwidth *= 2
		b2 := PlanModuleBudget(plan)
		return b2 >= b1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNoDedupCreatesDuplicateIO(t *testing.T) {
	rig := newRig()
	c := newCache(rig, Config{Budget: noLimit, NoDedup: true})
	c.Phase(autograd.PhaseStepStart, 0, 0)
	c.Phase(autograd.PhaseForward, 0, 0)
	m := autograd.NewModule("l0")
	c.ForwardPre(m, 0)
	x := bigTensor(rig, "x", 0)
	// Cache holds a ref per record; give the second record its own ref
	// baseline by retaining once more (the executor's producer ref).
	rig.rt.Life.Retain(x.Storage())
	c.Pack(x, 0, 0)
	w1 := rig.off.BytesWritten()
	c.Pack(x, 0, time.Microsecond)
	if rig.off.BytesWritten() != 2*w1 {
		t.Errorf("NoDedup should double the I/O: %v vs %v", rig.off.BytesWritten(), 2*w1)
	}
}
