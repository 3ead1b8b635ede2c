package core

import (
	"time"

	"ssdtrain/internal/sim"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// OptimKind selects the optimizer whose states and gradients the offload
// tier holds, in the ZeRO-Offload mixed-precision layout: parameters are
// FP16 on the GPU, the master copies and moment buffers are FP32 on the
// offload tier.
type OptimKind string

// Optimizer kinds.
const (
	// OptimAdam keeps FP32 master params + momentum + variance (12 bytes
	// per parameter, 6× the FP16 parameter bytes).
	OptimAdam OptimKind = "adam"
	// OptimSGD keeps FP32 master params + momentum (8 bytes per
	// parameter, 4× the FP16 parameter bytes).
	OptimSGD OptimKind = "sgd"
)

// StateBytes returns the resident optimizer-state volume for a weight of
// the given FP16 parameter bytes.
func (k OptimKind) StateBytes(param units.Bytes) units.Bytes {
	if k == OptimSGD {
		return 4 * param
	}
	return 6 * param
}

// hostUpdateBandwidth is the host update engine's effective memory
// bandwidth: the streaming rate of a vectorized CPU optimizer (the
// ZeRO-Offload CPU-Adam regime), well below DRAM peak because the update
// is a strided read-modify-write over several buffers at once.
const hostUpdateBandwidth = 24 * units.GBps

// OptimConfig configures the offloaded-optimizer pipeline for one run.
type OptimConfig struct {
	// Kind selects the state layout (empty = Adam).
	Kind OptimKind
	// DRAMGrant is the pinned host-memory volume the optimizer may claim
	// for resident state; weights that do not fit keep their states on the
	// NVMe rung.
	DRAMGrant units.Bytes
}

// OptimPlacement summarizes where Register put the optimizer working set
// and what per-step traffic the placement implies — the planner input for
// reserving tier bandwidth against the activation budget.
type OptimPlacement struct {
	// StateBytes is the total resident FP32 optimizer state.
	StateBytes units.Bytes
	// DRAMBytes/NVMeBytes are the resident block volumes per rung (states
	// plus the per-weight gradient and parameter shuttle blocks).
	DRAMBytes units.Bytes
	NVMeBytes units.Bytes
	// DRAMWeights/NVMeWeights count weights per rung.
	DRAMWeights int
	NVMeWeights int
	// *PerStep are the per-step shuttle volumes each rung's path carries:
	// writes are gradients down (plus state write-back on NVMe), reads are
	// updated parameters up (plus state read on NVMe).
	DRAMWritePerStep units.Bytes
	DRAMReadPerStep  units.Bytes
	NVMeWritePerStep units.Bytes
	NVMeReadPerStep  units.Bytes
}

// optimWeight is the pipeline's per-weight wiring: the shuttle block IDs,
// the resident rung, and the CPU-side state tensor sized by the kind.
// gradDone/pending carry the per-step handoff between GradReady (which
// offloads the gradient as backward produces it) and flush (which runs
// the update chains in registration order).
type optimWeight struct {
	w        *tensor.Tensor
	seq      int64
	gradID   TensorID
	stateID  TensorID
	paramID  TensorID
	state    *tensor.Tensor
	onDRAM   bool
	gradDone time.Duration
	pending  bool
}

// OptimOffloader runs the offloaded optimizer pipeline of ZeRO-Offload /
// GreedySnake on the simulated machine: per weight and per step, the FP16
// gradient shuttles down to the rung holding the weight's optimizer
// state, the update executes on a host-side engine (reading and writing
// the FP32 state — a timed NVMe round trip when the state lives on the
// array, host memory bandwidth when it lives in pinned DRAM), and the
// updated FP16 parameter shuttles back up. Gradient offload dispatches
// the moment backward produces each gradient, overlapping the remaining
// backward; the update chains themselves run in registration (forward)
// order — GreedySnake's reordering — so under the overlap schedule the
// pipeline drains into the next step's forward in exactly the order the
// forward consumes weights, stalling only the ops whose updates have not
// caught up. (Dispatching updates in gradient-arrival order would put
// the first block's update — the one fwd(t+1) needs first — at the back
// of the FIFO and serialize the whole drain onto the first op.)
//
// The optimizer rungs are separate tier instances (own FIFO queues, own
// block stores) that share the PCIe links and the NVMe array with the
// activation tiers, so optimizer traffic contends with activation
// offload on the physical paths and lands in the same §III-D wear
// ledger. Transfers take the host-mediated path (no GDS): the CPU owns
// the update, exactly as ZeRO-Offload's architecture prescribes.
type OptimOffloader struct {
	update  sim.Server
	rec     *spans.Recorder
	updateT spans.TrackID

	dram Tier
	nvme Tier

	cfg     OptimConfig
	weights []optimWeight
	states  []*tensor.Tensor        // per registered weight: its reusable state tensor
	ready   map[int64]time.Duration // storage seq → updated-weight arrival
	drain   time.Duration
	placed  OptimPlacement

	// steady is the fast-path fold bookkeeping (per-cycle update-engine
	// busy growth; the tiers keep their own). dUpdateBusy is the last
	// folded cycle's busy delta, extraBusy the extrapolated busy volume —
	// so UpdateBusy reports the same total whether the run was simulated
	// in full or extrapolated.
	prevUpdateBusy time.Duration
	dUpdateBusy    time.Duration
	extraBusy      time.Duration
}

// NewOptimOffloader wires the pipeline; its update spans go to rec (nil
// records nothing). dram may be nil (no pinned pool — every state lives
// on the NVMe rung); nvme must be set. The tiers are owned by the
// caller, which resets them per run before Reset/Register.
func NewOptimOffloader(rec *spans.Recorder, dram, nvme Tier) *OptimOffloader {
	return &OptimOffloader{
		rec:     rec,
		updateT: rec.RegisterTrack("optim.update"),
		dram:    dram,
		nvme:    nvme,
	}
}

// Tiers returns the optimizer rung stack (DRAM first when present) for
// per-tier reporting.
func (o *OptimOffloader) Tiers() []Tier {
	if o.dram == nil {
		return []Tier{o.nvme}
	}
	return []Tier{o.dram, o.nvme}
}

// Placement returns the Register outcome.
func (o *OptimOffloader) Placement() OptimPlacement { return o.placed }

// Reset rebinds the pipeline to a run's knobs and clears all per-run
// state. The member tiers must have been reset by their owner first.
func (o *OptimOffloader) Reset(cfg OptimConfig) {
	if cfg.Kind == "" {
		cfg.Kind = OptimAdam
	}
	o.cfg = cfg
	o.update.Reset()
	o.weights = o.weights[:0]
	clear(o.ready)
	o.drain = 0
	o.placed = OptimPlacement{}
	o.prevUpdateBusy = 0
	o.dUpdateBusy = 0
	o.extraBusy = 0
}

// optimID mints a shuttle block ID outside the tensor cache's stamp
// space: cache stamps are positive, so negative stamps keyed by weight
// index can never collide with activation blocks.
func optimID(i, slot int) TensorID {
	return TensorID{Stamp: -int64(i*3 + slot + 1), ShapeHash: 0x0b71a11}
}

// Register places every weight's optimizer working set: DRAM fills first
// (the ZeRO-Offload posture) until the grant is exhausted, the rest lands
// on the NVMe rung. Resident blocks are pre-staged into the rungs' block
// stores without timed transfers — staging happens once before training,
// not on the measured path. Call once per run, after Reset.
func (o *OptimOffloader) Register(weights []*tensor.Tensor) OptimPlacement {
	if len(o.states) != len(weights) {
		// A fresh pipeline sizes its per-weight tables once, and builds
		// every weight's CPU-side FP32 state tensor, named after its
		// weight, from one slab and one array of dimensions.
		o.ready = make(map[int64]time.Duration, len(weights))
		o.weights = make([]optimWeight, 0, len(weights))
		o.states = make([]*tensor.Tensor, len(weights))
		dims := make([]int, len(weights))
		var slab tensor.Slab
		slab.Reserve(len(weights))
		for i, w := range weights {
			dims[i] = int(o.cfg.Kind.StateBytes(w.Bytes()) / 4)
			o.states[i] = slab.New(w.Name(), dims[i:i+1:i+1], tensor.FP32, tensor.CPU)
		}
	}
	var p OptimPlacement
	var dramUsed units.Bytes
	for i, w := range weights {
		pb := w.Bytes()
		sb := o.cfg.Kind.StateBytes(pb)
		need := sb + 2*pb // state + grad shuttle + param shuttle
		if o.states[i].Bytes() != sb {
			// The kind, and so the state's size, changed since the last run.
			o.states[i].Recycle(w.Name(), tensor.NewShape(int(sb/4)), tensor.FP32)
		}
		ow := optimWeight{
			w:       w,
			seq:     w.Storage().Seq(),
			gradID:  optimID(i, 0),
			stateID: optimID(i, 1),
			paramID: optimID(i, 2),
			state:   o.states[i],
		}
		ow.onDRAM = o.dram != nil && dramUsed+need <= o.cfg.DRAMGrant
		t := o.nvme
		if ow.onDRAM {
			t = o.dram
			dramUsed += need
			p.DRAMBytes += need
			p.DRAMWeights++
			p.DRAMWritePerStep += pb // gradient down
			p.DRAMReadPerStep += pb  // updated parameter up
		} else {
			p.NVMeBytes += need
			p.NVMeWeights++
			p.NVMeWritePerStep += pb + sb // gradient down + state write-back
			p.NVMeReadPerStep += pb + sb  // state read + updated parameter up
		}
		p.StateBytes += sb
		preload(t, ow.stateID, sb)
		preload(t, ow.paramID, pb)
		o.weights = append(o.weights, ow)
	}
	o.placed = p
	return p
}

// preload records a resident block on a tier without a timed transfer.
func preload(t Tier, id TensorID, n units.Bytes) {
	type preloader interface {
		Preload(id TensorID, n units.Bytes)
	}
	t.(preloader).Preload(id, n)
}

// GradReady implements autograd.OptimPipeline: offload the gradient the
// moment backward completes it — the transfer overlaps the remaining
// backward — and mark the weight's update chain pending for the
// forward-order flush. The update chains themselves never start under
// backward: the optimizer phase is the classic post-backward step, and
// the sync/overlap schedules differ only in whether the step boundary
// waits for it to drain.
func (o *OptimOffloader) GradReady(w *tensor.Tensor, ready time.Duration) {
	seq := w.Storage().Seq()
	for i := range o.weights {
		ow := &o.weights[i]
		if ow.seq != seq {
			continue
		}
		t := o.nvme
		if ow.onDRAM {
			t = o.dram
		}
		_, f, err := t.Store(ow.gradID, ow.w, ready)
		if err != nil {
			// Optimizer rungs are never bounded and never armed for
			// faults, so a store cannot fail; keep the chain alive
			// regardless.
			f = ready
		}
		ow.gradDone = f
		ow.pending = true
		return
	}
}

// flush dispatches every pending update chain in registration (forward)
// order — the GreedySnake snake turn: backward sweeps the blocks
// last-to-first, so the first block's gradient lands right as fwd(t+1)
// wants its weight back, and the update sequence 1..N runs just-in-time
// ahead of the forward consuming it. Deferring dispatch to the first
// consumer query (Drain, WeightReady, StepEnd) is sound because time is
// virtual: all chain inputs are simulated timestamps, and the update
// server starts each job at max(ready, busyUntil) regardless of when it
// was submitted.
func (o *OptimOffloader) flush() {
	for i := range o.weights {
		ow := &o.weights[i]
		if !ow.pending {
			continue
		}
		ow.pending = false
		o.dispatch(ow)
	}
}

// dispatch runs one weight's chain after its gradient landed:
// (state read) → update → (state write-back) → param up.
func (o *OptimOffloader) dispatch(ow *optimWeight) {
	t := o.nvme
	if ow.onDRAM {
		t = o.dram
	}
	f := ow.gradDone
	sb := ow.state.Bytes()
	if !ow.onDRAM {
		if _, lf, _, lerr := t.Load(ow.stateID, f); lerr == nil {
			f = lf
		}
	}
	// The update streams the gradient, the FP32 state (read and write),
	// and the fresh FP16 parameter through host memory.
	dur := hostUpdateBandwidth.TimeFor(2*ow.w.Bytes() + 2*sb)
	uf := o.update.Submit(f, dur)
	if o.rec.Enabled() {
		o.rec.Span(o.updateT, spans.KindOptimOffload, -1, ow.w.Name(), uf-dur, uf, sb, 0)
	}
	f = uf
	if !ow.onDRAM {
		if _, sf, serr := t.Store(ow.stateID, ow.state, f); serr == nil {
			f = sf
		}
	}
	if _, lf, _, lerr := t.Load(ow.paramID, f); lerr == nil {
		f = lf
	}
	o.ready[ow.seq] = f
	if f > o.drain {
		o.drain = f
	}
}

// WeightReady implements autograd.OptimPipeline: when the weight's
// updated value is back on the GPU (zero when no chain is pending).
func (o *OptimOffloader) WeightReady(w *tensor.Tensor) time.Duration {
	o.flush()
	return o.ready[w.Storage().Seq()]
}

// Drain implements autograd.OptimPipeline: when every dispatched chain
// completes.
func (o *OptimOffloader) Drain() time.Duration {
	o.flush()
	return o.drain
}

// StepEnd implements autograd.OptimPipeline: under the overlap schedule
// the pipeline keeps draining past the step boundary; the window is
// recorded so attribution can show the hidden work.
func (o *OptimOffloader) StepEnd(end time.Duration) {
	o.flush()
	if o.rec.Enabled() && o.drain > end {
		o.rec.Span(o.updateT, spans.KindOptimOverlap, -1, "optim-drain", end, o.drain, 0, 0)
	}
}

// UpdateBusy reports the host update engine's cumulative busy time,
// including extrapolated cycles.
func (o *OptimOffloader) UpdateBusy() time.Duration { return o.update.BusyTime() + o.extraBusy }

// FoldCycle folds the pipeline's per-step state for the steady-state
// fast path: the update engine's busy growth and backlog horizon, every
// weight's updated-arrival horizon (in weights order — the overlap
// schedule's cross-step state), the drain horizon, and both rungs' tier
// machinery.
func (o *OptimOffloader) FoldCycle(sig *sim.Sig, origin time.Duration) {
	ub := o.update.BusyTime()
	sig.FoldDur(ub - o.prevUpdateBusy)
	o.dUpdateBusy = ub - o.prevUpdateBusy
	o.prevUpdateBusy = ub
	sig.FoldHorizon(o.update.BusyUntil(), origin)
	sig.FoldHorizon(o.drain, origin)
	for i := range o.weights {
		sig.FoldHorizon(o.ready[o.weights[i].seq], origin)
	}
	for _, t := range o.Tiers() {
		t.FoldCycle(sig, origin)
	}
}

// ExtrapolateCycles advances both rungs' cumulative traffic by n cycles
// of the folded deltas. The shared NVMe
// array's member-device counters are advanced by the activation tier
// that owns them (see SSDOffloader.SharedArray).
func (o *OptimOffloader) ExtrapolateCycles(n int64) {
	o.extraBusy += o.dUpdateBusy * time.Duration(n)
	for _, t := range o.Tiers() {
		t.ExtrapolateCycles(n)
	}
}
