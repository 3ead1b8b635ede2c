package autograd

import (
	"fmt"
	"time"

	"ssdtrain/internal/gpu"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/trace"
	"ssdtrain/internal/units"
)

// Stall causes recorded on the compute track when the host blocks on
// in-flight reloads (the attribution report buckets stall time by these).
const (
	stallReloadWait       = "reload-wait"
	stallCheckpointInputs = "checkpoint-inputs"
	// stallOptimWait is fwd(t+1) waiting for a weight whose offloaded
	// optimizer chain from step t has not uploaded the updated value yet.
	stallOptimWait = "optim-wait"
)

// ExecConfig configures the training-step executor.
type ExecConfig struct {
	// MicroBatches per step (gradient accumulation); the paper's main
	// evaluation fixes this at 1 (§IV-A).
	MicroBatches int
	// UpdateCost returns the optimizer's per-weight kernel time.
	UpdateCost func(w *tensor.Tensor) time.Duration
	// AccumCost returns the per-weight gradient accumulation kernel time,
	// charged for every micro-batch after the first.
	AccumCost func(w *tensor.Tensor) time.Duration
	// Materialize backs saved activations with real deterministic bytes so
	// offload round-trips can be verified checksum-exactly.
	Materialize bool
	// Seed parameterizes materialized payloads.
	Seed uint64
}

// savedRef is one graph entry: the packed handle plus executor-side
// retention bookkeeping for raw (uncached) tensors.
type savedRef struct {
	packed      Packed
	t           *tensor.Tensor
	rawRetained bool
}

// opRun records one executed forward op. The saved slice's capacity is
// retained across steps — every step saves the same tensors, so after the
// first step the append chain allocates nothing.
type opRun struct {
	spec   *OpSpec
	saved  []savedRef
	finish time.Duration
	out    *tensor.Tensor

	// outT..recMaskT are the op's recycled tensors: every step (and every
	// run on a recycled arena) produces the same tensor population, so
	// instead of allocating fresh tensor+storage pairs each iteration the
	// executor re-zeroes these in place (reviveInto). Identity semantics
	// are preserved — a revived storage is unstamped and unreferenced, so
	// the allocator and the cache treat it exactly like a new allocation.
	outT     *tensor.Tensor
	gradT    *tensor.Tensor
	maskT    *tensor.Tensor
	statsT   *tensor.Tensor
	recT     *tensor.Tensor
	recMaskT *tensor.Tensor
}

// blockRun records one executed forward block. blockRuns live on the
// executor and are reset in place each micro-batch: the simulated step is
// identical every iteration, so its bookkeeping memory is too.
type blockRun struct {
	block  *Block
	ops    []opRun
	in     *tensor.Tensor
	extras []*tensor.Tensor
	out    *tensor.Tensor
	// inPacked/extraPacked are set for checkpointed blocks: the block
	// inputs are the only saved tensors (PyTorch checkpointing saves the
	// function's arguments).
	inPacked    savedRef
	extraPacked []savedRef
	// extraFinish/recomputed/recMasks/chkRefs are per-block scratch reused
	// across steps.
	extraFinish []time.Duration
	recomputed  []*tensor.Tensor
	recMasks    []*tensor.Tensor
	chkRefs     []savedRef
}

// opStatic is the per-op state that never changes across steps: tensor
// names, the pre-transposed weight view, and the stats-tensor shape. The
// seed executor rebuilt all of these with fmt.Sprintf on every step —
// string formatting was a third of the simulator's allocations.
type opStatic struct {
	outName   string
	gradName  string
	recName   string
	maskName  string
	statsName string
	// wt is the transposed weight view registered for backward; one view
	// object per op, reused every step (identity semantics are unchanged —
	// the cache identifies tensors by storage stamp + shape, not object).
	wt         *tensor.Tensor
	statsShape tensor.Shape
}

// blockStatic is the per-block forward prepass, computed once: the last
// forward consumer of every op output, of the block input, and of each
// extra input, so producer references are released at exactly the right
// kernel completion.
type blockStatic struct {
	ops       []opStatic
	lastOut   []int
	lastIn    int
	lastExtra []int
}

// Executor drives training steps of a Graph on a Runtime through the
// Hooks surface. It reproduces the host/device split of the real stack:
// the host issues kernels ahead of the device, blocks on unpacked tensors
// that are still loading, and charges hook CPU costs to host time — which
// is how the paper's "negligible overhead" claim becomes measurable here.
type Executor struct {
	rt    *Runtime
	graph *Graph
	hooks Hooks
	cfg   ExecConfig

	clock time.Duration // start of the next step
	seed  uint64
	// weights caches the graph's distinct parameters (graph order): the
	// optimizer touches them every step and Reset re-registers them, so
	// recomputing the list per use would put a map+slice on the hot path.
	weights []*tensor.Tensor
	gradOf  map[int64]*tensor.Tensor // weight storage seq → grad tensor
	// gradAllocated marks grad buffers registered with the allocator in
	// the current run; cleared by Reset so a recycled arena re-allocates
	// them at first backward touch exactly like a fresh executor.
	gradAllocated map[int64]bool
	consumer      map[int]int // block index → forward consumer count

	// optim, when set, replaces the on-GPU optimizer loop with an
	// offloaded pipeline (ConfigureOptim). gradOps counts each weight's
	// backward ops per micro-batch (static); gradLeft counts down during
	// the last micro-batch so GradReady fires exactly when the weight's
	// gradient is complete.
	optim        OptimPipeline
	optimOverlap bool
	gradOps      map[int64]int
	gradLeft     map[int64]int

	// inT/gradSeedT are the recycled per-micro-batch graph input and loss
	// gradient seed (see opRun's recycled tensors).
	inT       *tensor.Tensor
	gradSeedT *tensor.Tensor

	static []blockStatic
	// runs/outs/finishes are per-step scratch, reset every micro-batch.
	runs     []blockRun
	outs     []*tensor.Tensor
	finishes []time.Duration
	// unpacked is shared unpack scratch; its contents are consumed before
	// the next unpackAll call.
	unpacked []*tensor.Tensor
}

// NewExecutor validates the graph, allocates weights (and their
// gradient buffers lazily), and returns an executor.
func NewExecutor(rt *Runtime, g *Graph, hooks Hooks, cfg ExecConfig) (*Executor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if hooks == nil {
		hooks = NoHooks{}
	}
	if cfg.MicroBatches <= 0 {
		cfg.MicroBatches = 1
	}
	if cfg.UpdateCost == nil {
		cfg.UpdateCost = func(*tensor.Tensor) time.Duration { return 0 }
	}
	if cfg.AccumCost == nil {
		cfg.AccumCost = func(*tensor.Tensor) time.Duration { return 0 }
	}
	e := &Executor{
		rt:            rt,
		graph:         g,
		hooks:         hooks,
		cfg:           cfg,
		seed:          cfg.Seed,
		weights:       g.Weights(),
		gradOf:        make(map[int64]*tensor.Tensor),
		gradAllocated: make(map[int64]bool),
		gradOps:       make(map[int64]int),
		gradLeft:      make(map[int64]int),
	}
	for _, b := range g.Blocks {
		for i := range b.Ops {
			if w := b.Ops[i].Weight; w != nil {
				e.gradOps[w.Storage().Seq()]++
			}
		}
	}
	for _, w := range e.weights {
		rt.Life.Alloc(0, w.Storage(), gpu.ClassWeights)
	}
	e.computeConsumers()
	e.computeStatics()
	return e, nil
}

// Weights returns the graph's distinct parameter tensors in graph order.
func (e *Executor) Weights() []*tensor.Tensor { return e.weights }

// Reset rewinds the executor for a new measurement on a recycled arena:
// the step clock restarts, the materialization seed replays, gradient
// buffers are treated as unallocated again (re-registered at first
// backward touch, as a fresh executor would), and the weights are
// re-registered with the (reset) allocator. Call after Runtime.Reset and
// after the weight storages were reset in place.
func (e *Executor) Reset() {
	e.clock = 0
	e.seed = e.cfg.Seed
	clear(e.gradAllocated)
	clear(e.gradLeft)
	for _, w := range e.weights {
		e.rt.Life.Alloc(0, w.Storage(), gpu.ClassWeights)
	}
}

// reviveInto returns the cached tensor with its storage re-zeroed,
// allocating the tensor on first use. A revived tensor keeps its identity
// (name, shape, dtype); its storage is unstamped, unreferenced and
// unmaterialized, indistinguishable from a fresh allocation to the
// allocator and the cache.
func reviveInto(slot **tensor.Tensor, name string, shape tensor.Shape, dt tensor.DType) *tensor.Tensor {
	t := *slot
	if t == nil {
		t = tensor.New(name, shape, dt, tensor.GPU)
		*slot = t
		return t
	}
	t.Storage().ResetForReuse()
	return t
}

// computeConsumers precomputes forward fan-out per block output.
func (e *Executor) computeConsumers() {
	e.consumer = make(map[int]int)
	for bi, b := range e.graph.Blocks {
		// The chained successor, or the loss/backward seed for the final
		// block, consumes every block output exactly once.
		e.consumer[bi]++
		for _, x := range b.ExtraIn {
			e.consumer[x]++
		}
	}
}

// computeStatics precomputes names, transposed weight views, the
// last-consumer prepass, and the per-step scratch structures.
func (e *Executor) computeStatics() {
	blocks := e.graph.Blocks
	e.static = make([]blockStatic, len(blocks))
	e.runs = make([]blockRun, len(blocks))
	e.outs = make([]*tensor.Tensor, len(blocks))
	e.finishes = make([]time.Duration, len(blocks))
	for bi, b := range blocks {
		st := &e.static[bi]
		st.ops = make([]opStatic, len(b.Ops))
		path := b.Module.Path()
		for oi := range b.Ops {
			op := &b.Ops[oi]
			os := &st.ops[oi]
			os.outName = path + "." + op.Name
			os.gradName = os.outName + ".grad"
			os.recName = os.outName + ".rec"
			if op.SaveMask {
				os.maskName = os.outName + ".mask"
			}
			if op.SaveStatsElems > 0 {
				os.statsName = os.outName + ".stats"
				os.statsShape = tensor.NewShape(int(op.SaveStatsElems))
			}
			if op.Weight != nil {
				os.wt = op.Weight.Transpose()
			}
		}

		// Last-consumer prepass (static: depends only on the op specs).
		n := len(b.Ops)
		st.lastOut = make([]int, n)
		for j := range st.lastOut {
			st.lastOut[j] = -1
		}
		st.lastExtra = make([]int, len(b.ExtraIn))
		for k := range st.lastExtra {
			st.lastExtra[k] = -1
		}
		for oi := range b.Ops {
			op := &b.Ops[oi]
			if j := b.InputIndex(oi); j >= 0 {
				if oi > st.lastOut[j] {
					st.lastOut[j] = oi
				}
			} else if oi > st.lastIn {
				st.lastIn = oi
			}
			if s := op.SaveOther1 - 1; s >= 0 && oi > st.lastOut[s] {
				st.lastOut[s] = oi
			}
			if op.SaveBlockInput && oi > st.lastIn {
				st.lastIn = oi
			}
			if k := op.SaveExtra1 - 1; k >= 0 && oi > st.lastExtra[k] {
				st.lastExtra[k] = oi
			}
		}

		run := &e.runs[bi]
		run.block = b
		run.ops = make([]opRun, n)
		run.extras = make([]*tensor.Tensor, len(b.ExtraIn))
		run.extraFinish = make([]time.Duration, len(b.ExtraIn))
		run.recomputed = make([]*tensor.Tensor, n)
	}
}

// StepResult reports one executed step.
type StepResult struct {
	Stats trace.StepStats
	// HostTime is where the host clock ended relative to step start.
	HostTime time.Duration
	// UpdateTime is the optimizer phase duration (weight updates).
	UpdateTime time.Duration
	// StoreDrain is when outstanding offload writes finish (may exceed
	// step end; the next step's forward overlaps it).
	Start time.Duration
	End   time.Duration
}

// Run executes one training step and returns its result. Successive calls
// continue on the same virtual timeline.
func (e *Executor) Run() StepResult {
	start := e.clock
	hostNow := start
	var stall time.Duration
	var modelFLOPs units.FLOPs

	e.hooks.Phase(PhaseStepStart, 0, hostNow)

	for mb := 0; mb < e.cfg.MicroBatches; mb++ {
		e.hooks.Phase(PhaseForward, mb, hostNow)

		// Graph input (token ids). It carries a producer ref plus one
		// consumer ref for the first block.
		in := reviveInto(&e.inT, "input", e.graph.InputShape, e.graph.InputDType)
		e.rt.Life.Alloc(hostNow, in.Storage(), gpu.ClassWorkspace)
		e.rt.Life.Retain(in.Storage())

		cur, curFinish := in, hostNow
		for bi, b := range e.graph.Blocks {
			run := &e.runs[bi]
			run.in, run.out = cur, nil
			for k, src := range b.ExtraIn {
				run.extras[k] = e.outs[src]
				run.extraFinish[k] = e.finishes[src]
			}
			e.forwardBlock(run, &e.static[bi], bi, curFinish, &hostNow, &stall, &modelFLOPs)
			e.outs[bi] = run.out
			e.finishes[bi] = run.ops[len(run.ops)-1].finish
			cur, curFinish = run.out, e.finishes[bi]
		}
		// The graph input's producer ref: released after the first block's
		// first op consumed it.
		e.rt.Life.Release(in.Storage(), e.runs[0].ops[0].finish)

		// Backward. The host synchronizes with the device at the
		// forward→backward boundary: FP16 training engines read the loss
		// and the loss-scale overflow flag on the host here, which is a
		// device sync (Megatron-DeepSpeed behaviour). The sync also
		// anchors the tensor cache's forwarding decisions to real store
		// progress instead of the host's run-ahead clock.
		if bu := e.rt.Compute.BusyUntil(); bu > hostNow {
			hostNow = bu
		}
		e.hooks.Phase(PhaseBackward, mb, hostNow)
		if e.optim != nil && mb == e.cfg.MicroBatches-1 {
			// Last micro-batch: arm the per-weight countdowns so GradReady
			// fires at each weight's final gradient (post-accumulation).
			for seq, n := range e.gradOps {
				e.gradLeft[seq] = n
			}
		}
		final := e.outs[len(e.outs)-1]
		finalFinish := e.finishes[len(e.finishes)-1]
		// Loss gradient seed, shaped like the final output.
		grad := reviveInto(&e.gradSeedT, "gradseed", final.Shape(), final.DType())
		e.rt.Life.Alloc(hostNow, grad.Storage(), gpu.ClassWorkspace)
		// The loss consumer ref on the final output: the gradient seed's
		// computation reads it once the forward output exists.
		relAt := hostNow
		if finalFinish > relAt {
			relAt = finalFinish
		}
		e.rt.Life.Release(final.Storage(), relAt)

		var bwdEnd time.Duration
		for bi := len(e.runs) - 1; bi >= 0; bi-- {
			grad, bwdEnd = e.backwardBlock(&e.runs[bi], &e.static[bi], grad, &hostNow, &stall, mb, bi)
		}
		// The gradient wrt the graph input is discarded once its producing
		// kernel completes.
		e.rt.Life.Release(grad.Storage(), bwdEnd)
		for bi := range e.runs {
			modelFLOPs += e.backwardFLOPs(e.runs[bi].block)
		}
	}

	// Optimizer.
	bwdEndAll := e.rt.Compute.BusyUntil()
	e.hooks.Phase(PhaseOptimizer, 0, hostNow)
	var end time.Duration
	if e.optim != nil {
		// The update runs on the offloaded pipeline (its chains were
		// dispatched from backwardBlock as gradients completed), not the
		// GPU. Sync holds the step open until every chain drains; overlap
		// ends at the compute horizon and lets the pipeline drain into the
		// next step's forward, which stalls per weight as needed.
		end = e.rt.Compute.BusyUntil()
		if hostNow > end {
			end = hostNow
		}
		if !e.optimOverlap {
			if d := e.optim.Drain(); d > end {
				end = d
			}
		}
		e.optim.StepEnd(end)
	} else {
		for _, w := range e.weights {
			hostNow += e.rt.Spec.HostIssue
			dur := e.cfg.UpdateCost(w)
			f := e.rt.Compute.Submit(hostNow, dur)
			e.rt.Rec.Span(e.rt.ComputeTrack, spans.KindOptimizer, -1, w.Name(), f-dur, f, 0, 0)
		}
		end = e.rt.Compute.BusyUntil()
		if hostNow > end {
			end = hostNow
		}
	}
	e.hooks.Phase(PhaseStepEnd, 0, end)
	e.clock = end

	return StepResult{
		Stats: trace.StepStats{
			StepTime:     end - start,
			ModelFLOPs:   modelFLOPs,
			ComputeStall: stall,
		},
		HostTime:   hostNow - start,
		UpdateTime: end - bwdEndAll,
		Start:      start,
		End:        end,
	}
}

func (e *Executor) backwardFLOPs(b *Block) units.FLOPs {
	var f units.FLOPs
	for i := range b.Ops {
		f += b.Ops[i].BwdFLOPs
	}
	return f
}

// materialize optionally backs a tensor with deterministic bytes.
func (e *Executor) materialize(t *tensor.Tensor) {
	if e.cfg.Materialize && t.Storage().Data() == nil {
		e.seed++
		t.Storage().Materialize(e.seed)
	}
}

// pack routes a tensor through the pack hook and applies the executor's
// retention rule for raw returns: non-weight GPU tensors stored raw on
// the graph are kept alive by the graph until consumed.
func (e *Executor) pack(t *tensor.Tensor, producedAt time.Duration, hostNow *time.Duration) savedRef {
	e.materialize(t)
	*hostNow += e.hooks.HostCost()
	p := e.hooks.Pack(t, producedAt, *hostNow)
	ref := savedRef{packed: p, t: t}
	if raw, ok := p.(*tensor.Tensor); ok {
		if !raw.IsWeight() && !raw.IsCPU() {
			e.rt.Life.Retain(raw.Storage())
			ref.rawRetained = true
		}
	}
	e.rt.Counters.Add("exec.packs", 1)
	return ref
}

// unpackAll resolves an op's saved refs, blocking host time on reloads,
// and returns the data-ready lower bound for the backward kernel. The
// returned slice is shared scratch, valid until the next unpackAll call.
func (e *Executor) unpackAll(saved []savedRef, hostNow *time.Duration, stall *time.Duration, cause string) ([]*tensor.Tensor, time.Duration) {
	base := *hostNow
	if bu := e.rt.Compute.BusyUntil(); bu > base {
		base = bu
	}
	dataReady := *hostNow
	tensors := e.unpacked[:0]
	for i := range saved {
		*hostNow += e.hooks.HostCost()
		t, ready := e.hooks.Unpack(saved[i].packed, *hostNow)
		if t == nil {
			panic(fmt.Sprintf("autograd: unpack returned nil for %v", saved[i].t))
		}
		tensors = append(tensors, t)
		if ready > dataReady {
			dataReady = ready
		}
		if ready > *hostNow {
			*hostNow = ready // host blocks until the load completes
		}
		e.rt.Counters.Add("exec.unpacks", 1)
	}
	e.unpacked = tensors
	if dataReady > base {
		*stall += dataReady - base
		e.rt.Rec.Span(e.rt.ComputeTrack, spans.KindStall, -1, cause, base, dataReady, 0, 0)
	}
	return tensors, dataReady
}

// consumeAll releases an op's saved refs after its backward kernel
// finished at the given time.
func (e *Executor) consumeAll(saved []savedRef, at time.Duration) {
	for i := range saved {
		e.hooks.Consumed(saved[i].packed, at)
		if saved[i].rawRetained {
			e.rt.Life.Release(saved[i].t.Storage(), at)
		}
	}
}

// forwardBlock executes one block's forward pass in place on run. The
// block input and extras (with their producing kernels' completion times)
// are already set on run by the caller.
func (e *Executor) forwardBlock(run *blockRun, st *blockStatic, bi int, inFinish time.Duration, hostNow *time.Duration, stall *time.Duration, modelFLOPs *units.FLOPs) {
	b := run.block
	blockIn := run.in
	extras := run.extras
	e.hooks.ForwardPre(b.Module, *hostNow)

	if b.Checkpoint {
		// Only the block inputs are registered for backward.
		run.inPacked = e.pack(blockIn, inFinish, hostNow)
		run.extraPacked = run.extraPacked[:0]
		for k := range extras {
			run.extraPacked = append(run.extraPacked, e.pack(extras[k], run.extraFinish[k], hostNow))
		}
	}

	n := len(b.Ops)
	for oi := range b.Ops {
		op := &b.Ops[oi]
		input := blockIn
		if j := b.InputIndex(oi); j >= 0 {
			input = run.ops[j].out
		}
		*hostNow += e.rt.Spec.HostIssue
		ready := *hostNow
		if e.optim != nil && op.Weight != nil {
			if wr := e.optim.WeightReady(op.Weight); wr > ready {
				// fwd(t+1) touching a weight whose updated value is still
				// uploading from step t's offloaded optimizer: the device
				// (not the host) waits for the chain to land.
				base := ready
				if bu := e.rt.Compute.BusyUntil(); bu > base {
					base = bu
				}
				if wr > base {
					*stall += wr - base
					e.rt.Rec.Span(e.rt.ComputeTrack, spans.KindStall, int32(bi), stallOptimWait, base, wr, 0, 0)
				}
				ready = wr
			}
		}
		finish := e.rt.Compute.Submit(ready, op.FwdTime)
		start := finish - op.FwdTime
		e.rt.Rec.Span(e.rt.ComputeTrack, spans.KindForward, int32(bi), st.ops[oi].outName, start, finish, 0, 0)
		*modelFLOPs += op.FwdFLOPs

		rec := &run.ops[oi]
		out := reviveInto(&rec.outT, st.ops[oi].outName, op.OutShape, op.OutDType)
		e.rt.Life.Alloc(start, out.Storage(), gpu.ClassActivations)
		rec.spec, rec.finish, rec.out = op, finish, out
		rec.saved = rec.saved[:0]

		if !b.Checkpoint {
			e.saveForBackward(rec, &st.ops[oi], b, oi, input, blockIn, extras, run, start, finish, hostNow)
			// Weight transpose views are registered on the graph by linear
			// layers even under checkpointing (PyTorch re-registers during
			// recomputation; net effect on the cache is identical).
			if wt := st.ops[oi].wt; wt != nil {
				rec.saved = append(rec.saved, e.pack(wt, finish, hostNow))
			}
		}

		// Release producer refs whose last forward consumer is this op.
		for j := 0; j < oi; j++ {
			if st.lastOut[j] == oi {
				e.rt.Life.Release(run.ops[j].out.Storage(), finish)
			}
		}
		// An output nothing consumes dies with its own producing op
		// (unless it is the block output, whose refs are handled below).
		if oi < n-1 && st.lastOut[oi] == -1 {
			e.rt.Life.Release(out.Storage(), finish)
		}
		if st.lastIn == oi {
			e.rt.Life.Release(blockIn.Storage(), finish)
		}
		for k := range extras {
			if st.lastExtra[k] == oi {
				e.rt.Life.Release(extras[k].Storage(), finish)
			}
		}

		e.rt.Counters.Add("exec.fwd_ops", 1)
	}

	// The block output carries one producer ref; add one ref per
	// downstream consumer, then drop the producer ref.
	out := run.ops[n-1].out
	for i := 0; i < e.consumer[bi]; i++ {
		e.rt.Life.Retain(out.Storage())
	}
	e.rt.Life.Release(out.Storage(), run.ops[n-1].finish)
	run.out = out

	e.hooks.ForwardPost(b.Module, *hostNow)
}

// saveForBackward evaluates an op's save flags, packing each tensor into
// rec.saved.
func (e *Executor) saveForBackward(rec *opRun, os *opStatic, b *Block, oi int, input, blockIn *tensor.Tensor, extras []*tensor.Tensor, run *blockRun, start, finish time.Duration, hostNow *time.Duration) {
	op := rec.spec
	out := rec.out
	if op.SaveInput {
		// The input was produced by an earlier op (or is the block input);
		// its data is complete by this op's start.
		rec.saved = append(rec.saved, e.pack(input, start, hostNow))
	}
	if op.SaveOutput {
		rec.saved = append(rec.saved, e.pack(out, finish, hostNow))
	}
	if op.SaveOther1 > 0 {
		rec.saved = append(rec.saved, e.pack(run.ops[op.SaveOther1-1].out, start, hostNow))
	}
	if op.SaveBlockInput {
		rec.saved = append(rec.saved, e.pack(blockIn, start, hostNow))
	}
	if op.SaveExtra1 > 0 {
		rec.saved = append(rec.saved, e.pack(extras[op.SaveExtra1-1], start, hostNow))
	}
	if op.SaveMask {
		mask := reviveInto(&rec.maskT, os.maskName, op.OutShape, tensor.BOOL)
		e.rt.Life.Alloc(start, mask.Storage(), gpu.ClassActivations)
		ref := e.pack(mask, finish, hostNow)
		e.rt.Life.Release(mask.Storage(), finish) // producer ref
		rec.saved = append(rec.saved, ref)
	}
	if op.SaveStatsElems > 0 {
		stats := reviveInto(&rec.statsT, os.statsName, os.statsShape, tensor.FP32)
		e.rt.Life.Alloc(start, stats.Storage(), gpu.ClassActivations)
		ref := e.pack(stats, finish, hostNow)
		e.rt.Life.Release(stats.Storage(), finish)
		rec.saved = append(rec.saved, ref)
	}
}

// backwardBlock executes one block's backward pass, consuming the
// incoming gradient. It returns the gradient wrt the block input and the
// completion time of the block's last backward kernel.
func (e *Executor) backwardBlock(run *blockRun, st *blockStatic, gradIn *tensor.Tensor, hostNow *time.Duration, stall *time.Duration, mb, bi int) (*tensor.Tensor, time.Duration) {
	b := run.block
	e.hooks.BackwardPre(b.Module, *hostNow)

	run.recMasks = run.recMasks[:0]
	if b.Checkpoint {
		// Resolve the block inputs, then re-run the forward chain.
		run.chkRefs = append(run.chkRefs[:0], run.inPacked)
		run.chkRefs = append(run.chkRefs, run.extraPacked...)
		e.unpackAll(run.chkRefs, hostNow, stall, stallCheckpointInputs)
		for oi := range b.Ops {
			op := &b.Ops[oi]
			*hostNow += e.rt.Spec.HostIssue
			finish := e.rt.Compute.Submit(*hostNow, op.FwdTime)
			start := finish - op.FwdTime
			e.rt.Rec.Span(e.rt.ComputeTrack, spans.KindRecompute, int32(bi), st.ops[oi].recName, start, finish, 0, 0)
			out := reviveInto(&run.ops[oi].recT, st.ops[oi].recName, op.OutShape, op.OutDType)
			e.rt.Life.Alloc(start, out.Storage(), gpu.ClassActivations)
			run.recomputed[oi] = out
			if op.SaveMask {
				m := reviveInto(&run.ops[oi].recMaskT, st.ops[oi].maskName, op.OutShape, tensor.BOOL)
				e.rt.Life.Alloc(start, m.Storage(), gpu.ClassActivations)
				run.recMasks = append(run.recMasks, m)
			}
			e.rt.Counters.Add("exec.recompute_ops", 1)
		}
	}

	grad := gradIn
	var lastFinish time.Duration
	for oi := len(b.Ops) - 1; oi >= 0; oi-- {
		op := &b.Ops[oi]
		var dataReady time.Duration
		if !b.Checkpoint {
			_, dataReady = e.unpackAll(run.ops[oi].saved, hostNow, stall, stallReloadWait)
		} else {
			dataReady = *hostNow
		}

		*hostNow += e.rt.Spec.HostIssue
		ready := *hostNow
		if dataReady > ready {
			ready = dataReady
		}
		finish := e.rt.Compute.Submit(ready, op.BwdTime)
		start := finish - op.BwdTime
		e.rt.Rec.Span(e.rt.ComputeTrack, spans.KindBackward, int32(bi), st.ops[oi].gradName, start, finish, 0, 0)
		lastFinish = finish

		// Gradient wrt this op's input.
		var inShape tensor.Shape
		var inDType tensor.DType
		if j := b.InputIndex(oi); j >= 0 {
			inShape, inDType = b.Ops[j].OutShape, b.Ops[j].OutDType
		} else {
			inShape, inDType = run.in.Shape(), run.in.DType()
		}
		gnext := reviveInto(&run.ops[oi].gradT, st.ops[oi].gradName, inShape, inDType)
		e.rt.Life.Alloc(start, gnext.Storage(), gpu.ClassWorkspace)

		// Weight gradient buffer, allocated on first backward touch and
		// retained across steps (frameworks keep .grad buffers resident);
		// a recycled arena revives the buffer instead of reallocating it.
		if op.Weight != nil {
			seq := op.Weight.Storage().Seq()
			if !e.gradAllocated[seq] {
				g, ok := e.gradOf[seq]
				if !ok {
					g = tensor.New(op.Weight.Name()+".grad", op.Weight.Shape(), op.Weight.DType(), tensor.GPU)
					e.gradOf[seq] = g
				} else {
					g.Storage().ResetForReuse()
				}
				e.rt.Life.Alloc(start, g.Storage(), gpu.ClassGradients)
				e.gradAllocated[seq] = true
			}
			gradDone := finish
			if mb > 0 {
				// Accumulation read-modify-write for later micro-batches.
				dur := e.cfg.AccumCost(op.Weight)
				af := e.rt.Compute.Submit(finish, dur)
				e.rt.Rec.Span(e.rt.ComputeTrack, spans.KindAccum, int32(bi), op.Weight.Name(), af-dur, af, 0, 0)
				gradDone = af
			}
			if e.optim != nil && mb == e.cfg.MicroBatches-1 {
				e.gradLeft[seq]--
				if e.gradLeft[seq] == 0 {
					// The weight's final gradient is complete: hand it to the
					// offloaded pipeline so the download overlaps the rest of
					// backward.
					e.optim.GradReady(op.Weight, gradDone)
				}
			}
		}

		if !b.Checkpoint {
			e.consumeAll(run.ops[oi].saved, finish)
		} else {
			// Recomputed activations die with their consuming backward op.
			if rec := run.recomputed[oi]; rec != nil {
				e.rt.Life.Release(rec.Storage(), finish)
				run.recomputed[oi] = nil
			}
		}
		// The op's own forward output producer ref (non-checkpoint): block
		// outputs were transferred; intermediate outputs were released in
		// forward. Nothing to do here for them.

		// Consume the incoming gradient.
		e.rt.Life.Release(grad.Storage(), finish)
		grad = gnext
		e.rt.Counters.Add("exec.bwd_ops", 1)
	}

	if b.Checkpoint {
		// Release recomputed masks and the unpacked block inputs.
		for _, m := range run.recMasks {
			e.rt.Life.Release(m.Storage(), lastFinish)
		}
		run.chkRefs = append(run.chkRefs[:0], run.inPacked)
		run.chkRefs = append(run.chkRefs, run.extraPacked...)
		e.consumeAll(run.chkRefs, lastFinish)
	}

	e.hooks.BackwardPost(b.Module, *hostNow)
	return grad, lastFinish
}
