package autograd

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ssdtrain/internal/tensor"
)

// randomGraph builds a structurally valid graph from fuzz input: a chain
// of blocks whose ops carry randomized save flags, weights and shapes.
func randomGraph(blocks []uint8) *Graph {
	root := NewModule("fuzz")
	g := &Graph{
		Name:       "fuzz",
		Root:       root,
		InputShape: tensor.NewShape(4, 64),
		InputDType: tensor.INT32,
	}
	n := len(blocks)
	if n == 0 {
		n = 1
		blocks = []uint8{0}
	}
	if n > 6 {
		n = 6
		blocks = blocks[:6]
	}
	for bi := 0; bi < n; bi++ {
		sel := blocks[bi]
		nops := int(sel%3) + 1
		var ops []OpSpec
		for oi := 0; oi < nops; oi++ {
			op := OpSpec{
				Name:     fmt.Sprintf("op%d", oi),
				FwdTime:  time.Duration(sel%5+1) * 100 * time.Microsecond,
				BwdTime:  time.Duration(sel%7+1) * 100 * time.Microsecond,
				FwdFLOPs: 1e6,
				BwdFLOPs: 2e6,
				OutShape: tensor.NewShape(4, 64, int(sel%4+1)*32),
				OutDType: tensor.FP16,
			}
			switch (int(sel) + oi) % 5 {
			case 0:
				op.SaveInput = true
			case 1:
				op.SaveOutput = true
			case 2:
				op.SaveMask = true
			case 3:
				op.SaveInput = true
				op.SaveStatsElems = 64
			case 4:
				op.Weight = tensor.NewWeight(fmt.Sprintf("w%d_%d", bi, oi),
					tensor.NewShape(32, 32), tensor.FP16, tensor.GPU)
			}
			if oi > 0 && sel%4 == 3 {
				op.InputFrom1 = 1 // branch back to the first op's output
			}
			ops = append(ops, op)
		}
		g.Blocks = append(g.Blocks, &Block{
			Module:     root.Child(fmt.Sprintf("b%d", bi)),
			Ops:        ops,
			Checkpoint: sel%8 == 7,
		})
	}
	return g
}

// TestExecutorLeakFreeProperty runs randomized graphs and asserts the
// executor's core invariants: validation accepts what randomGraph builds,
// steps have positive duration, only weights+grads stay resident, and
// repeated runs on the same graph are deterministic.
func TestExecutorLeakFreeProperty(t *testing.T) {
	f := func(blocks []uint8, microBatches uint8) bool {
		g := randomGraph(blocks)
		if err := g.Validate(); err != nil {
			return false
		}
		mb := int(microBatches%3) + 1
		run := func() (StepResult, *Runtime) {
			rt := newTestRuntime()
			ex, err := NewExecutor(rt, g, nil, ExecConfig{MicroBatches: mb})
			if err != nil {
				return StepResult{}, nil
			}
			return ex.Run(), rt
		}
		r1, rt1 := run()
		if rt1 == nil {
			return false
		}
		if r1.Stats.StepTime <= 0 {
			return false
		}
		if rt1.Alloc.LiveBytes() != g.WeightBytes()*2 {
			return false // leak: anything beyond weights+grads survived
		}
		r2, _ := run()
		return r1.Stats.StepTime == r2.Stats.StepTime &&
			r1.Stats.ModelFLOPs == r2.Stats.ModelFLOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestExecutorFLOPsInvariantProperty: model FLOPs are independent of the
// checkpoint flag (recomputation is not algorithmic work) and scale
// linearly with micro-batches.
func TestExecutorFLOPsInvariantProperty(t *testing.T) {
	f := func(blocks []uint8) bool {
		g := randomGraph(blocks)
		run := func(checkpoint bool, mb int) StepResult {
			gg := randomGraph(blocks)
			for _, b := range gg.Blocks {
				b.Checkpoint = checkpoint
			}
			rt := newTestRuntime()
			ex, err := NewExecutor(rt, gg, nil, ExecConfig{MicroBatches: mb})
			if err != nil {
				panic(err)
			}
			return ex.Run()
		}
		_ = g
		plain := run(false, 1)
		ckpt := run(true, 1)
		double := run(false, 2)
		if plain.Stats.ModelFLOPs != ckpt.Stats.ModelFLOPs {
			return false
		}
		return double.Stats.ModelFLOPs == 2*plain.Stats.ModelFLOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFootprintMatchesExecutor: a graph's Footprint counts exactly the
// allocator events the executor logs per step. Without hooks nothing
// else allocates, so the first step logs an allocation and a free per
// counted storage per micro-batch plus one gradient buffer per weight,
// and every later step the same less the gradients.
func TestFootprintMatchesExecutor(t *testing.T) {
	f := func(blocks []uint8, microBatches uint8) bool {
		g := randomGraph(blocks)
		mb := int(microBatches%3) + 1
		rt := newTestRuntime()
		ex, err := NewExecutor(rt, g, nil, ExecConfig{MicroBatches: mb})
		if err != nil {
			return false
		}
		fp := g.Footprint()
		for step := 0; step < 3; step++ {
			want := 2 * fp.Allocs * mb
			if step == 0 {
				want += fp.Weights
			}
			mark := rt.Alloc.EventMark()
			ex.Run()
			if got := rt.Alloc.EventMark() - mark; got != want {
				t.Logf("step %d of %v × %d micro-batches: %d events, footprint %+v", step, blocks, mb, got, fp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	if !f([]uint8{0, 1, 2, 3, 4, 5}, 1) || !f([]uint8{7, 15, 23}, 2) {
		t.Error("footprint misses the checkpointed and mixed graphs")
	}
}
