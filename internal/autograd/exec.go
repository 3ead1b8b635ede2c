package autograd

import (
	"fmt"
	"strings"
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

	// outT..recMaskT are the op's tensors, built once (computeStatics):
	// every step (and every run on a recycled arena) produces the same
	// tensor population, so instead of allocating fresh tensor+storage
	// pairs each iteration the executor re-zeroes these in place
	// (revive). Identity semantics are preserved — a revived storage is
	// unstamped and unreferenced, so the allocator and the cache treat it
	// exactly like a new allocation. outT is also the op's output in the
	// current step. An op has the tensors its flags and its block's
	// checkpointing call for; the others stay nil.
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
// names and the pre-transposed weight view. The seed executor rebuilt
// these with fmt.Sprintf on every step — string formatting was a third
// of the simulator's allocations.
type opStatic struct {
	outName  string
	gradName string
	recName  string
	maskName string
	// wt is the transposed weight view registered for backward; one view
	// per op, reused every step (identity semantics are unchanged — the
	// cache identifies tensors by storage stamp + shape, not object).
	wt *tensor.Tensor
	// wi indexes the op's weight in Executor.weights, or is -1.
	wi int
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

// weightRun is one parameter's per-step state: its gradient buffer,
// allocated at the first backward touch and retained across steps
// (frameworks keep .grad buffers resident); whether that happened in
// the current run; and, for an offloaded optimizer, the backward ops
// that touch it per micro-batch and their countdown in the last one, so
// GradReady fires exactly when its gradient is complete.
type weightRun struct {
	grad      *tensor.Tensor
	ops, left int
	allocated bool
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
	// wruns holds each one's gradient state, in the same order.
	weights []*tensor.Tensor
	wruns   []weightRun
	// consumer counts each block output's forward consumers.
	consumer []int

	// optim, when set, replaces the on-GPU optimizer loop with an
	// offloaded pipeline (ConfigureOptim).
	optim        OptimPipeline
	optimOverlap bool

	// inT/gradSeedT are the per-micro-batch graph input and loss
	// gradient seed (see opRun's tensors).
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

// NewExecutor validates the graph, builds every tensor a step will
// create, registers the weights, and returns an executor.
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
		rt:      rt,
		graph:   g,
		hooks:   hooks,
		cfg:     cfg,
		seed:    cfg.Seed,
		weights: g.Weights(),
	}
	e.computeStatics()
	for _, w := range e.weights {
		rt.Life.Alloc(0, w.Storage(), gpu.ClassWeights)
	}
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
	for i := range e.wruns {
		e.wruns[i].allocated, e.wruns[i].left = false, 0
	}
	for _, w := range e.weights {
		e.rt.Life.Alloc(0, w.Storage(), gpu.ClassWeights)
	}
}

// revive re-zeroes one of the executor's tensors for its next use: its
// storage is unstamped, unreferenced and unmaterialized,
// indistinguishable from a fresh allocation to the allocator and the
// cache, while the tensor keeps its identity (name, shape, dtype).
func revive(t *tensor.Tensor) *tensor.Tensor {
	t.Storage().ResetForReuse()
	return t
}

// computeStatics builds, once, everything a step needs besides virtual
// time: the forward fan-out of each block, the tensor names, the
// transposed weight views, the last-consumer prepass, the per-step
// scratch, and every tensor a step allocates (Footprint.Allocs of them,
// plus a gradient buffer per weight). Each kind comes from one
// allocation sized from the graph, so a fresh arena pays a few heap
// objects for them instead of one per tensor, name and slice.
func (e *Executor) computeStatics() {
	blocks := e.graph.Blocks
	// Count first: the tensors (the graph input and loss seed, then per
	// op its output, input gradient and mask, and either its stats or
	// its recomputed output), the names' bytes, the saved refs, the
	// views and their dimensions, the checkpoint scratch.
	nOps, nExtra, packs, views, dims, names := 0, 0, 0, 0, 0, 0
	boxes, chkRefs, chkMasks, widest := 2+len(e.weights), 0, 0, 1
	for _, b := range blocks {
		nOps += len(b.Ops)
		nExtra += len(b.ExtraIn)
		path := b.Module.pathLen()
		names += path
		if b.Checkpoint {
			widest = max(widest, 1+len(b.ExtraIn))
			chkRefs += 1 + 2*len(b.ExtraIn)
		}
		for i := range b.Ops {
			op := &b.Ops[i]
			out := path + 1 + len(op.Name)
			names += out + len(".grad")
			boxes += 2
			if op.SaveMask {
				names += out + len(".mask")
				boxes++
			}
			if b.Checkpoint {
				names += out + len(".rec")
				boxes++
				if op.SaveMask {
					chkMasks++
				}
				continue
			}
			packs += op.packs()
			widest = max(widest, op.packs())
			if op.SaveStatsElems > 0 {
				names += out + len(".stats")
				boxes++
				dims++
			}
			if op.Weight != nil {
				names += len(op.Weight.Name()) + len(".T")
				views++
				dims += len(op.Weight.Shape())
			}
		}
	}
	for _, w := range e.weights {
		names += len(w.Name()) + len(".grad")
	}

	var sb strings.Builder
	sb.Grow(names)
	// cat writes parts to sb as one name that shares sb's buffer.
	cat := func(parts ...string) string {
		start := sb.Len()
		for _, p := range parts {
			sb.WriteString(p)
		}
		return sb.String()[start:]
	}
	var slab tensor.Slab
	slab.Reserve(boxes)
	wts := make([]tensor.Tensor, views)
	dimBuf := make(tensor.Shape, dims)
	// take carves the next n dimensions off dimBuf.
	take := func(n int) tensor.Shape {
		d := dimBuf[:n:n]
		dimBuf = dimBuf[n:]
		return d
	}

	e.wruns = make([]weightRun, len(e.weights))
	for i, w := range e.weights {
		e.wruns[i].grad = slab.New(cat(w.Name(), ".grad"), w.Shape(), w.DType(), tensor.GPU)
	}
	e.inT = slab.New("input", e.graph.InputShape, e.graph.InputDType, tensor.GPU)
	last := blocks[len(blocks)-1]
	final := &last.Ops[len(last.Ops)-1]
	e.gradSeedT = slab.New("gradseed", final.OutShape, final.OutDType, tensor.GPU)

	e.consumer = make([]int, len(blocks))
	e.static = make([]blockStatic, len(blocks))
	e.runs = make([]blockRun, len(blocks))
	e.outs = make([]*tensor.Tensor, len(blocks))
	e.finishes = make([]time.Duration, len(blocks))
	e.unpacked = make([]*tensor.Tensor, 0, widest)
	// Every op's saved refs share one array, each op's slice capped at
	// the registrations it makes, so the first step's appends fill it
	// instead of growing a slice per op. The per-op and per-extra-input
	// slices of every block are carved from shared arrays the same way.
	saved := make([]savedRef, packs)
	statics := make([]opStatic, nOps)
	runs := make([]opRun, nOps)
	ints := make([]int, nOps+nExtra)
	recomputed := make([]*tensor.Tensor, nOps)
	extras := make([]*tensor.Tensor, nExtra)
	extraFinish := make([]time.Duration, nExtra)
	refs := make([]savedRef, chkRefs)
	masks := make([]*tensor.Tensor, chkMasks)
	inShape, inDType := e.graph.InputShape, e.graph.InputDType
	for bi, b := range blocks {
		// The chained successor, or the loss/backward seed for the final
		// block, consumes every block output exactly once.
		e.consumer[bi]++
		for _, x := range b.ExtraIn {
			e.consumer[x]++
		}

		n, nx := len(b.Ops), len(b.ExtraIn)
		st := &e.static[bi]
		st.ops, statics = statics[:n:n], statics[n:]
		run := &e.runs[bi]
		run.block = b
		run.ops, runs = runs[:n:n], runs[n:]
		run.recomputed, recomputed = recomputed[:n:n], recomputed[n:]
		run.extras, extras = extras[:nx:nx], extras[nx:]
		run.extraFinish, extraFinish = extraFinish[:nx:nx], extraFinish[nx:]
		st.lastOut, st.lastExtra, ints = ints[:n:n], ints[n:n+nx:n+nx], ints[n+nx:]
		if b.Checkpoint {
			run.extraPacked, run.chkRefs, refs = refs[:0:nx], refs[nx:nx:1+2*nx], refs[1+2*nx:]
			m := 0
			for oi := range b.Ops {
				if b.Ops[oi].SaveMask {
					m++
				}
			}
			run.recMasks, masks = masks[:0:m], masks[m:]
		}

		start := sb.Len()
		b.Module.writePath(&sb)
		path := sb.String()[start:]
		for oi := range b.Ops {
			op := &b.Ops[oi]
			os := &st.ops[oi]
			r := &run.ops[oi]
			os.gradName = cat(path, ".", op.Name, ".grad")
			os.outName = os.gradName[:len(os.gradName)-len(".grad")]
			r.outT = slab.New(os.outName, op.OutShape, op.OutDType, tensor.GPU)
			// The gradient wrt the op's input, shaped like the input.
			gShape, gDType := inShape, inDType
			if j := b.InputIndex(oi); j >= 0 {
				gShape, gDType = b.Ops[j].OutShape, b.Ops[j].OutDType
			}
			r.gradT = slab.New(os.gradName, gShape, gDType, tensor.GPU)
			if op.SaveMask {
				os.maskName = cat(os.outName, ".mask")
			}
			os.wi = -1
			if op.Weight != nil {
				os.wi = e.weightIndex(op.Weight)
				e.wruns[os.wi].ops++
			}
			if b.Checkpoint {
				os.recName = cat(os.outName, ".rec")
				r.recT = slab.New(os.recName, op.OutShape, op.OutDType, tensor.GPU)
				if op.SaveMask {
					r.recMaskT = slab.New(os.maskName, op.OutShape, tensor.BOOL, tensor.GPU)
				}
				continue
			}
			k := op.packs()
			r.saved, saved = saved[:0:k], saved[k:]
			if op.SaveMask {
				r.maskT = slab.New(os.maskName, op.OutShape, tensor.BOOL, tensor.GPU)
			}
			if op.SaveStatsElems > 0 {
				shape := take(1)
				shape[0] = int(op.SaveStatsElems)
				r.statsT = slab.New(cat(os.outName, ".stats"), shape, tensor.FP32, tensor.GPU)
			}
			if w := op.Weight; w != nil {
				os.wt, wts = w.TransposeInto(&wts[0], cat(w.Name(), ".T"), take(len(w.Shape()))), wts[1:]
			}
		}
		last := &b.Ops[n-1]
		inShape, inDType = last.OutShape, last.OutDType

		// Last-consumer prepass (static: depends only on the op specs).
		for j := range st.lastOut {
			st.lastOut[j] = -1
		}
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
	}
}

// weightIndex returns w's index in the executor's weights: the weight
// that shares w's storage, as Graph.Weights dedups them.
func (e *Executor) weightIndex(w *tensor.Tensor) int {
	for i, x := range e.weights {
		if x.Storage() == w.Storage() {
			return i
		}
	}
	panic(fmt.Sprintf("autograd: weight %s is not among the graph's weights", w.Name()))
}

// saves counts the activations and masks the op registers for backward
// outside checkpointing.
func (o *OpSpec) saves() int {
	n := 0
	for _, saves := range []bool{o.SaveInput, o.SaveOutput, o.SaveOther1 > 0, o.SaveBlockInput, o.SaveExtra1 > 0, o.SaveMask} {
		if saves {
			n++
		}
	}
	return n
}

// packs counts every tensor the op registers for backward outside
// checkpointing: its saves, its stats and its transposed weight view.
func (o *OpSpec) packs() int {
	n := o.saves()
	if o.SaveStatsElems > 0 {
		n++
	}
	if o.Weight != nil {
		n++
	}
	return n
}

// Footprint counts what one training step of a graph puts on the device,
// from the template alone. A fresh arena sizes its growable scratch from
// it before the first step, so the step fills room instead of regrowing
// tables and logs from empty. The counts follow forwardBlock and
// backwardBlock; TestFootprintMatchesExecutor keeps them in step.
type Footprint struct {
	// Allocs is the storages the executor allocates and frees within each
	// micro-batch: the graph input, the loss-gradient seed, and per op its
	// output and input gradient, plus the mask and stats it saves or,
	// under checkpointing, its recomputed output and mask. Each logs an
	// allocation and a free.
	Allocs int
	// Saved is the activations and masks each micro-batch registers for
	// backward, weights and stats excluded, a tensor registered twice
	// counting twice. It bounds the tensor cache's records, the tier
	// stores' blocks and the cache's reload buffers.
	Saved int
	// Weights is the distinct parameters. Each gets a gradient buffer at
	// its first backward touch, which stays allocated.
	Weights int
	// Blocks is the graph's blocks, the modules each micro-batch enters.
	Blocks int
	// Live estimates how many storages are live at once: the weights and
	// their gradients, every saved tensor and stats, and the largest
	// block's op outputs in flight.
	Live int
}

// Footprint counts the graph's per-step device footprint.
func (g *Graph) Footprint() Footprint {
	var f Footprint
	stats, widest := 0, 0
	for _, b := range g.Blocks {
		widest = max(widest, len(b.Ops))
		if b.Checkpoint {
			// Forward saves the block inputs only; backward re-runs the
			// forward chain, masks included, before the gradients.
			f.Saved += 1 + len(b.ExtraIn)
		}
		for i := range b.Ops {
			op := &b.Ops[i]
			f.Allocs += 2 // output, input gradient
			if op.SaveMask {
				f.Allocs++
			}
			if b.Checkpoint {
				f.Allocs++ // recomputed output
				continue
			}
			f.Saved += op.saves()
			if op.SaveStatsElems > 0 {
				f.Allocs++
				stats++
			}
		}
	}
	f.Allocs += 2 // graph input, loss-gradient seed
	f.Weights = len(g.Weights())
	f.Blocks = len(g.Blocks)
	f.Live = 2*f.Weights + f.Saved + stats + widest
	return f
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
		in := revive(e.inT)
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
			for i := range e.wruns {
				e.wruns[i].left = e.wruns[i].ops
			}
		}
		final := e.outs[len(e.outs)-1]
		finalFinish := e.finishes[len(e.finishes)-1]
		// Loss gradient seed, shaped like the final output.
		grad := revive(e.gradSeedT)
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
	e.rt.Counters.Add(trace.ExecPacks, 1)
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
		e.rt.Counters.Add(trace.ExecUnpacks, 1)
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
			input = run.ops[j].outT
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
		out := revive(rec.outT)
		e.rt.Life.Alloc(start, out.Storage(), gpu.ClassActivations)
		rec.spec, rec.finish = op, finish
		rec.saved = rec.saved[:0]

		if !b.Checkpoint {
			e.saveForBackward(rec, input, blockIn, extras, run, start, finish, hostNow)
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
				e.rt.Life.Release(run.ops[j].outT.Storage(), finish)
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

		e.rt.Counters.Add(trace.ExecFwdOps, 1)
	}

	// The block output carries one producer ref; add one ref per
	// downstream consumer, then drop the producer ref.
	out := run.ops[n-1].outT
	for i := 0; i < e.consumer[bi]; i++ {
		e.rt.Life.Retain(out.Storage())
	}
	e.rt.Life.Release(out.Storage(), run.ops[n-1].finish)
	run.out = out

	e.hooks.ForwardPost(b.Module, *hostNow)
}

// saveForBackward evaluates an op's save flags, packing each tensor into
// rec.saved.
func (e *Executor) saveForBackward(rec *opRun, input, blockIn *tensor.Tensor, extras []*tensor.Tensor, run *blockRun, start, finish time.Duration, hostNow *time.Duration) {
	op := rec.spec
	out := rec.outT
	if op.SaveInput {
		// The input was produced by an earlier op (or is the block input);
		// its data is complete by this op's start.
		rec.saved = append(rec.saved, e.pack(input, start, hostNow))
	}
	if op.SaveOutput {
		rec.saved = append(rec.saved, e.pack(out, finish, hostNow))
	}
	if op.SaveOther1 > 0 {
		rec.saved = append(rec.saved, e.pack(run.ops[op.SaveOther1-1].outT, start, hostNow))
	}
	if op.SaveBlockInput {
		rec.saved = append(rec.saved, e.pack(blockIn, start, hostNow))
	}
	if op.SaveExtra1 > 0 {
		rec.saved = append(rec.saved, e.pack(extras[op.SaveExtra1-1], start, hostNow))
	}
	if op.SaveMask {
		mask := revive(rec.maskT)
		e.rt.Life.Alloc(start, mask.Storage(), gpu.ClassActivations)
		ref := e.pack(mask, finish, hostNow)
		e.rt.Life.Release(mask.Storage(), finish) // producer ref
		rec.saved = append(rec.saved, ref)
	}
	if op.SaveStatsElems > 0 {
		stats := revive(rec.statsT)
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
			out := revive(run.ops[oi].recT)
			e.rt.Life.Alloc(start, out.Storage(), gpu.ClassActivations)
			run.recomputed[oi] = out
			if op.SaveMask {
				m := revive(run.ops[oi].recMaskT)
				e.rt.Life.Alloc(start, m.Storage(), gpu.ClassActivations)
				run.recMasks = append(run.recMasks, m)
			}
			e.rt.Counters.Add(trace.ExecRecomputeOps, 1)
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
		gnext := revive(run.ops[oi].gradT)
		e.rt.Life.Alloc(start, gnext.Storage(), gpu.ClassWorkspace)

		// Weight gradient buffer, allocated on first backward touch and
		// retained across steps (frameworks keep .grad buffers resident).
		if op.Weight != nil {
			wr := &e.wruns[st.ops[oi].wi]
			if !wr.allocated {
				e.rt.Life.Alloc(start, revive(wr.grad).Storage(), gpu.ClassGradients)
				wr.allocated = true
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
				wr.left--
				if wr.left == 0 {
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
		e.rt.Counters.Add(trace.ExecBwdOps, 1)
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
