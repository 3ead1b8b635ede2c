package autograd

import (
	"testing"
	"time"

	"ssdtrain/internal/gpu"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// toyGraph builds a 3-block chain with saves covering input, output,
// masks, stats, weights and an extra (cross) input.
func toyGraph() *Graph {
	root := NewModule("toy")
	shape := tensor.NewShape(4, 1024, 64) // 256Ki elements, above no min… below 1<<20
	bigShape := tensor.NewShape(4, 1024, 512)
	mk := func(name string, save bool, w *tensor.Tensor) OpSpec {
		return OpSpec{
			Name:      name,
			FwdTime:   time.Millisecond,
			BwdTime:   2 * time.Millisecond,
			FwdFLOPs:  1e9,
			BwdFLOPs:  2e9,
			OutShape:  bigShape,
			OutDType:  tensor.FP16,
			SaveInput: save,
			Weight:    w,
		}
	}
	w1 := tensor.NewWeight("w1", tensor.NewShape(64, 512), tensor.FP16, tensor.GPU)
	b0 := &Block{Module: root.Child("b0"), Ops: []OpSpec{
		mk("op0", false, nil),
		{Name: "op1", FwdTime: time.Millisecond, BwdTime: time.Millisecond,
			OutShape: bigShape, OutDType: tensor.FP16, SaveOutput: true, SaveMask: true,
			SaveStatsElems: 128},
	}}
	b1 := &Block{Module: root.Child("b1"), Ops: []OpSpec{
		mk("op0", true, w1),
		mk("op1", true, nil),
	}}
	b2 := &Block{Module: root.Child("b2"), Ops: []OpSpec{
		{Name: "xop", FwdTime: time.Millisecond, BwdTime: time.Millisecond,
			OutShape: bigShape, OutDType: tensor.FP16, SaveExtra1: 1},
		mk("op1", true, nil),
	}, ExtraIn: []int{0}}
	_ = shape
	return &Graph{
		Name:       "toy",
		Root:       root,
		Blocks:     []*Block{b0, b1, b2},
		InputShape: tensor.NewShape(4, 1024),
		InputDType: tensor.INT32,
	}
}

func newTestRuntime() *Runtime {
	spec := gpu.A100PCIe()
	return NewRuntime(spec, Footprint{})
}

func TestModuleTree(t *testing.T) {
	root := NewModule("gpt")
	layers := root.Child("layers")
	l3 := layers.Child("3")
	if l3.Path() != "gpt.layers.3" {
		t.Errorf("path = %q", l3.Path())
	}
	if len(root.Children()) != 1 || len(layers.Children()) != 1 {
		t.Error("children wrong")
	}
}

func TestGraphValidation(t *testing.T) {
	g := toyGraph()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	bad := toyGraph()
	bad.Blocks[2].Ops[0].SaveExtra1 = 5
	if bad.Validate() == nil {
		t.Error("out-of-range SaveExtra1 accepted")
	}
	bad2 := toyGraph()
	bad2.Blocks[2].Ops[0].SaveExtra1 = 0 // extra input now unconsumed
	if bad2.Validate() == nil {
		t.Error("unconsumed extra input accepted")
	}
	bad3 := toyGraph()
	bad3.Blocks[0].Ops[0].InputFrom1 = 3
	if bad3.Validate() == nil {
		t.Error("forward InputFrom1 accepted")
	}
	bad4 := toyGraph()
	bad4.Blocks[0].Ops = nil
	if bad4.Validate() == nil {
		t.Error("empty block accepted")
	}
}

func TestGraphAccounting(t *testing.T) {
	g := toyGraph()
	ws := g.Weights()
	if len(ws) != 1 {
		t.Fatalf("weights = %d", len(ws))
	}
	if g.WeightBytes() != units.Bytes(64*512*2) {
		t.Errorf("weight bytes = %v", g.WeightBytes())
	}
}

func TestSavedBytesDedup(t *testing.T) {
	// An op that saves its output and a successor that saves its input
	// (the same tensor) must count the bytes once.
	root := NewModule("m")
	shape := tensor.NewShape(1024)
	b := &Block{Module: root.Child("b"), Ops: []OpSpec{
		{Name: "a", OutShape: shape, OutDType: tensor.FP16, SaveOutput: true},
		{Name: "b", OutShape: shape, OutDType: tensor.FP16, SaveInput: true},
	}}
	got, largest := b.SavedBytes(0, nil)
	if got != units.Bytes(1024*2) || largest != got {
		t.Errorf("saved bytes = %v, largest %v, want one tensor (2048)", got, largest)
	}
}

func TestExecutorLeakFree(t *testing.T) {
	rt := newTestRuntime()
	g := toyGraph()
	ex, err := NewExecutor(rt, g, nil, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res := ex.Run()
	if res.Stats.StepTime <= 0 {
		t.Error("non-positive step time")
	}
	// After a step, only weights and their gradient buffers stay live.
	want := g.WeightBytes() * 2
	if rt.Alloc.LiveBytes() != want {
		t.Errorf("live bytes = %v, want %v (weights+grads)", rt.Alloc.LiveBytes(), want)
	}
	rt.Life.MustBeQuiescent("post-step")
}

func TestExecutorDeterministic(t *testing.T) {
	mk := func() StepResult {
		rt := newTestRuntime()
		ex, _ := NewExecutor(rt, toyGraph(), nil, ExecConfig{})
		ex.Run()
		return ex.Run()
	}
	a, b := mk(), mk()
	if a.Stats.StepTime != b.Stats.StepTime || a.End != b.End {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestExecutorMultiStepAdvancesClock(t *testing.T) {
	rt := newTestRuntime()
	ex, _ := NewExecutor(rt, toyGraph(), nil, ExecConfig{})
	r1 := ex.Run()
	r2 := ex.Run()
	if r2.Start != r1.End {
		t.Errorf("step 2 start %v != step 1 end %v", r2.Start, r1.End)
	}
	if r2.Stats.StepTime <= 0 {
		t.Error("second step has no duration")
	}
}

func TestExecutorRecompute(t *testing.T) {
	base := func(checkpoint bool) (StepResult, *Runtime) {
		rt := newTestRuntime()
		g := toyGraph()
		for _, b := range g.Blocks {
			b.Checkpoint = checkpoint
		}
		ex, err := NewExecutor(rt, g, nil, ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return ex.Run(), rt
	}
	plain, _ := base(false)
	rec, rt := base(true)
	// Recompute re-runs forwards: longer step, identical model FLOPs.
	if rec.Stats.StepTime <= plain.Stats.StepTime {
		t.Errorf("recompute %v not slower than plain %v", rec.Stats.StepTime, plain.Stats.StepTime)
	}
	if rec.Stats.ModelFLOPs != plain.Stats.ModelFLOPs {
		t.Errorf("model flops changed under recompute: %v vs %v", rec.Stats.ModelFLOPs, plain.Stats.ModelFLOPs)
	}
	if rt.Counters.Get("exec.recompute_ops") == 0 {
		t.Error("no recompute ops counted")
	}
	rt.Life.MustBeQuiescent("post-recompute")
}

func TestExecutorMicroBatches(t *testing.T) {
	rt := newTestRuntime()
	ex, _ := NewExecutor(rt, toyGraph(), nil, ExecConfig{MicroBatches: 3})
	res := ex.Run()
	rt2 := newTestRuntime()
	ex2, _ := NewExecutor(rt2, toyGraph(), nil, ExecConfig{MicroBatches: 1})
	res1 := ex2.Run()
	if res.Stats.ModelFLOPs != 3*res1.Stats.ModelFLOPs {
		t.Errorf("3 micro-batches flops %v != 3 × %v", res.Stats.ModelFLOPs, res1.Stats.ModelFLOPs)
	}
	if res.Stats.StepTime <= 2*res1.Stats.StepTime {
		t.Errorf("3 micro-batches not ~3x longer: %v vs %v", res.Stats.StepTime, res1.Stats.StepTime)
	}
}

// recordingHooks checks the hook call protocol.
type recordingHooks struct {
	NoHooks
	phases    []PhaseEvent
	fwdPre    int
	fwdPost   int
	bwdPre    int
	bwdPost   int
	packs     int
	unpacks   int
	consumed  int
	weightsOK bool
}

func (h *recordingHooks) Phase(ev PhaseEvent, mb int, now time.Duration) {
	h.phases = append(h.phases, ev)
}
func (h *recordingHooks) ForwardPre(*Module, time.Duration)   { h.fwdPre++ }
func (h *recordingHooks) ForwardPost(*Module, time.Duration)  { h.fwdPost++ }
func (h *recordingHooks) BackwardPre(*Module, time.Duration)  { h.bwdPre++ }
func (h *recordingHooks) BackwardPost(*Module, time.Duration) { h.bwdPost++ }
func (h *recordingHooks) Pack(t *tensor.Tensor, producedAt, now time.Duration) Packed {
	h.packs++
	if t.IsWeight() {
		h.weightsOK = true
	}
	return t
}
func (h *recordingHooks) Unpack(p Packed, now time.Duration) (*tensor.Tensor, time.Duration) {
	h.unpacks++
	return p.(*tensor.Tensor), now
}
func (h *recordingHooks) Consumed(Packed, time.Duration) { h.consumed++ }

func TestHookProtocol(t *testing.T) {
	rt := newTestRuntime()
	h := &recordingHooks{}
	ex, _ := NewExecutor(rt, toyGraph(), h, ExecConfig{})
	ex.Run()
	if h.fwdPre != 3 || h.fwdPost != 3 || h.bwdPre != 3 || h.bwdPost != 3 {
		t.Errorf("module hooks: %d %d %d %d", h.fwdPre, h.fwdPost, h.bwdPre, h.bwdPost)
	}
	if h.packs == 0 || h.packs != h.unpacks || h.consumed != h.packs {
		t.Errorf("pack/unpack/consume mismatch: %d/%d/%d", h.packs, h.unpacks, h.consumed)
	}
	if !h.weightsOK {
		t.Error("weight transpose was never packed")
	}
	wantPhases := []PhaseEvent{PhaseStepStart, PhaseForward, PhaseBackward, PhaseOptimizer, PhaseStepEnd}
	if len(h.phases) != len(wantPhases) {
		t.Fatalf("phases = %v", h.phases)
	}
	for i, p := range wantPhases {
		if h.phases[i] != p {
			t.Fatalf("phases = %v, want %v", h.phases, wantPhases)
		}
	}
}

// stallingHooks forces a reload delay on every unpack to verify stall
// accounting.
type stallingHooks struct {
	NoHooks
	delay time.Duration
}

func (h *stallingHooks) Unpack(p Packed, now time.Duration) (*tensor.Tensor, time.Duration) {
	return p.(*tensor.Tensor), now + h.delay
}

func TestStallAccounting(t *testing.T) {
	rt := newTestRuntime()
	ex, _ := NewExecutor(rt, toyGraph(), &stallingHooks{delay: 5 * time.Millisecond}, ExecConfig{})
	res := ex.Run()
	if res.Stats.ComputeStall == 0 {
		t.Error("forced unpack delays produced no stall")
	}
	rtBase := newTestRuntime()
	exBase, _ := NewExecutor(rtBase, toyGraph(), nil, ExecConfig{})
	resBase := exBase.Run()
	if res.Stats.StepTime <= resBase.Stats.StepTime {
		t.Error("stalls did not lengthen the step")
	}
}

func TestUpdateCostCharged(t *testing.T) {
	rt := newTestRuntime()
	ex, _ := NewExecutor(rt, toyGraph(), nil, ExecConfig{
		UpdateCost: func(w *tensor.Tensor) time.Duration { return 10 * time.Millisecond },
	})
	res := ex.Run()
	if res.UpdateTime < 10*time.Millisecond {
		t.Errorf("update time = %v", res.UpdateTime)
	}
}

func TestNoHooksPassthrough(t *testing.T) {
	x := tensor.New("x", tensor.NewShape(4), tensor.FP16, tensor.GPU)
	var h NoHooks
	p := h.Pack(x, 0, 0)
	got, ready := h.Unpack(p, 5*time.Millisecond)
	if got != x || ready != 5*time.Millisecond {
		t.Error("NoHooks not a passthrough")
	}
}

func TestLifetimesRelease(t *testing.T) {
	alloc := gpu.NewAllocator(units.GiB, 0)
	life := NewLifetimes(alloc, 0)
	s := tensor.NewStorage(100, tensor.GPU)
	life.Alloc(time.Millisecond, s, gpu.ClassActivations)
	life.Retain(s)
	life.Release(s, 10*time.Millisecond)
	if s.Freed() {
		t.Error("freed with a live ref")
	}
	life.Release(s, 5*time.Millisecond)
	if !s.Freed() {
		t.Error("not freed at refcount zero")
	}
	// Free time is the max of release times: the storage is resident
	// through [5ms, 10ms) — a free at the earlier release would empty the
	// window that opens just after 5ms — and gone once 10ms has passed.
	wins := []gpu.Window{
		{Start: 5*time.Millisecond + 1, End: 10 * time.Millisecond},
		{Start: 10*time.Millisecond + 1, End: 20 * time.Millisecond},
	}
	alloc.Finalize(wins)
	if wins[0].Total != 100 || wins[1].Total != 0 {
		t.Errorf("window peaks %v then %v, want 100 B in [5ms, 10ms) and 0 after the free at 10ms",
			wins[0].Total, wins[1].Total)
	}
}
