package autograd

import (
	"fmt"
	"slices"
	"time"

	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// OpSpec describes one GPU operator in a block: its forward/backward cost
// and which tensors it registers on the computation graph for backward
// (the tensors the pack hook sees). Ops within a block form a chain — op
// i's input is op i-1's output (op 0 consumes the block input) — with
// explicit extra edges for residual connections and cross-attention.
type OpSpec struct {
	Name string

	// FwdTime/BwdTime are kernel execution times from the GPU cost model.
	FwdTime time.Duration
	BwdTime time.Duration
	// FwdFLOPs/BwdFLOPs are the algorithmic work, counted into model
	// throughput (recomputation is excluded by the executor).
	FwdFLOPs units.FLOPs
	BwdFLOPs units.FLOPs

	// OutShape/OutDType describe the op's output activation.
	OutShape tensor.Shape
	OutDType tensor.DType

	// The one-byte save flags sit together beside OutDType, so an OpSpec
	// packs into 120 bytes.

	// SaveOutput registers the op's own output for backward.
	SaveOutput bool
	// SaveInput registers the op's input (previous op's output, or the op
	// named by InputFrom1).
	SaveInput bool
	// SaveBlockInput registers the block's input tensor (residual
	// connections); this deliberately packs a tensor that another op may
	// also have packed, exercising the cache's deduplication.
	SaveBlockInput bool
	// SaveMask additionally saves a bool mask shaped like the output
	// (dropout).
	SaveMask bool

	// InputFrom1, when positive, makes this op consume the output of op
	// InputFrom1-1 in the same block instead of the immediately preceding
	// op (1-based so the zero value keeps chain semantics). Cross-attention
	// query/kv projections both consume the cross-LayerNorm output this way.
	InputFrom1 int
	// SaveOther1, when positive, additionally registers the output of op
	// SaveOther1-1 in the same block (1-based; zero means none). Fused
	// cross-attention saves the kv projection's output this way.
	SaveOther1 int
	// SaveExtra1, when positive, registers extra block input SaveExtra1-1
	// (1-based so the zero value means "none"). Cross-attention uses this
	// to save the encoder output — the same tensor in every decoder
	// layer, the paper's headline dedup case.
	SaveExtra1 int
	// SaveStatsElems additionally saves a small fp32 stats tensor with
	// this many elements (LayerNorm mean/rstd); small tensors take the
	// pack hook's early-return path (Alg. 1 line 2).
	SaveStatsElems int64

	// Weight, when non-nil, is the parameter consumed by this op; its
	// transposed view is registered for backward exactly like PyTorch
	// linear layers do (§III-C1), and the optimizer updates it at step
	// end.
	Weight *tensor.Tensor
}

// Validate checks internal consistency.
func (o *OpSpec) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("autograd: op with empty name")
	}
	if o.FwdTime < 0 || o.BwdTime < 0 {
		return fmt.Errorf("autograd: op %s has negative time", o.Name)
	}
	if len(o.OutShape) == 0 {
		return fmt.Errorf("autograd: op %s has no output shape", o.Name)
	}
	return nil
}

// OutBytes returns the output activation size.
func (o *OpSpec) OutBytes() units.Bytes {
	return units.Bytes(o.OutShape.NumElems() * int64(o.OutDType.Size()))
}

// Block is a checkpointable unit of the model — a transformer layer, the
// embedding, or the head. Blocks are the granularity at which the tensor
// cache tracks scopes and prefetches, and at which activation
// checkpointing recomputes.
type Block struct {
	Module *Module
	Ops    []OpSpec
	// Checkpoint marks the block for layerwise recomputation: forward
	// saves only the block input; backward re-runs forward first.
	Checkpoint bool
	// ExtraIn lists indices of earlier blocks whose outputs this block
	// consumes in addition to its direct predecessor (cross-attention).
	ExtraIn []int
}

// InputIndex returns the block-local index of op oi's input: -1 for the
// block input, otherwise the producing op's index.
func (b *Block) InputIndex(oi int) int {
	if f := b.Ops[oi].InputFrom1; f > 0 {
		return f - 1
	}
	return oi - 1
}

// SavedBytes returns the total bytes this block registers for backward in
// normal (non-checkpoint) execution, excluding weights, and the largest
// tensor among them. Duplicate registrations of the same tensor (the
// dedup cases) are counted once.
func (b *Block) SavedBytes(blockInBytes units.Bytes, extraBytes []units.Bytes) (total, largest units.Bytes) {
	save := func(n units.Bytes) {
		total += n
		largest = max(largest, n)
	}
	// savedOut/savedIn/savedExtra dedup repeated registrations.
	savedOut := make(map[int]bool)
	savedIn := false
	savedExtra := make(map[int]bool)
	inBytes := func(oi int) units.Bytes {
		if j := b.InputIndex(oi); j >= 0 {
			return b.Ops[j].OutBytes()
		}
		return blockInBytes
	}
	saveOut := func(j int) {
		if j >= 0 && !savedOut[j] {
			savedOut[j] = true
			save(b.Ops[j].OutBytes())
		}
	}
	for i := range b.Ops {
		op := &b.Ops[i]
		if op.SaveInput {
			if j := b.InputIndex(i); j >= 0 {
				saveOut(j)
			} else if !savedIn {
				savedIn = true
				save(inBytes(i))
			}
		}
		if op.SaveOutput {
			saveOut(i)
		}
		if op.SaveOther1 > 0 {
			saveOut(op.SaveOther1 - 1)
		}
		if op.SaveBlockInput && !savedIn {
			savedIn = true
			save(blockInBytes)
		}
		if k := op.SaveExtra1 - 1; k >= 0 && k < len(extraBytes) && !savedExtra[k] {
			savedExtra[k] = true
			save(extraBytes[k])
		}
		if op.SaveMask {
			save(units.Bytes(op.OutShape.NumElems())) // bool mask
		}
		if op.SaveStatsElems > 0 {
			save(units.Bytes(op.SaveStatsElems * 4))
		}
	}
	return total, largest
}

// FwdFLOPs sums the block's forward work.
func (b *Block) FwdFLOPs() units.FLOPs {
	var f units.FLOPs
	for i := range b.Ops {
		f += b.Ops[i].FwdFLOPs
	}
	return f
}

// FwdTime sums the block's forward kernel time.
func (b *Block) FwdTime() time.Duration {
	var t time.Duration
	for i := range b.Ops {
		t += b.Ops[i].FwdTime
	}
	return t
}

// Graph is the per-micro-batch op program of a model: an ordered list of
// blocks. The same Graph is re-executed every micro-batch and step; all
// shapes are static, as in the paper's pretraining workloads.
type Graph struct {
	Name   string
	Root   *Module
	Blocks []*Block
	// InputShape/InputDType describe the graph input (token ids).
	InputShape tensor.Shape
	InputDType tensor.DType
}

// Validate checks the graph.
func (g *Graph) Validate() error {
	if len(g.Blocks) == 0 {
		return fmt.Errorf("autograd: graph %s has no blocks", g.Name)
	}
	for bi, b := range g.Blocks {
		if b.Module == nil {
			return fmt.Errorf("autograd: graph %s block %d has no module", g.Name, bi)
		}
		if len(b.Ops) == 0 {
			return fmt.Errorf("autograd: graph %s block %s has no ops", g.Name, b.Module.Path())
		}
		for i := range b.Ops {
			if err := b.Ops[i].Validate(); err != nil {
				return fmt.Errorf("graph %s block %s: %w", g.Name, b.Module.Path(), err)
			}
			if x := b.Ops[i].SaveExtra1; x > len(b.ExtraIn) {
				return fmt.Errorf("graph %s block %s op %s: SaveExtra1 %d out of range",
					g.Name, b.Module.Path(), b.Ops[i].Name, x)
			}
			if f := b.Ops[i].InputFrom1; f > i {
				return fmt.Errorf("graph %s block %s op %s: InputFrom1 %d must reference an earlier op",
					g.Name, b.Module.Path(), b.Ops[i].Name, f)
			}
			if s := b.Ops[i].SaveOther1; s > i {
				return fmt.Errorf("graph %s block %s op %s: SaveOther1 %d must reference an earlier op",
					g.Name, b.Module.Path(), b.Ops[i].Name, s)
			}
		}
		for _, e := range b.ExtraIn {
			if e < 0 || e >= bi {
				return fmt.Errorf("graph %s block %d: extra input %d must reference an earlier block", g.Name, bi, e)
			}
		}
		// Every extra input must be consumed by exactly one op: the
		// executor pairs one reference release with each SaveExtra.
		uses := make(map[int]int)
		for i := range b.Ops {
			if x := b.Ops[i].SaveExtra1; x > 0 {
				uses[x-1]++
			}
		}
		for k := range b.ExtraIn {
			if uses[k] != 1 {
				return fmt.Errorf("graph %s block %d: extra input %d consumed %d times (want 1)", g.Name, bi, k, uses[k])
			}
		}
	}
	return nil
}

// CloneWithFreshWeights returns a graph that shares this graph's module
// tree and op specs (both immutable after construction) but rebinds every
// weight tensor onto a fresh storage. Weight tying is preserved: views
// that shared a storage in the source (the embedding table and the
// transposed LM head) share one fresh storage in the clone. This is what
// lets a compiled run plan keep one immutable graph template and stamp
// out an executable copy per measurement — executions mutate weight
// storages (reference counts, cache stamps), so they can never share
// them, but everything else costs nothing to share.
func (g *Graph) CloneWithFreshWeights() *Graph {
	clone := &Graph{
		Name:       g.Name,
		Root:       g.Root,
		InputShape: g.InputShape,
		InputDType: g.InputDType,
		Blocks:     make([]*Block, len(g.Blocks)),
	}
	// One array each holds every block and every op of the clone, and
	// one slab every rebound weight and its fresh storage.
	n, weighted := g.size()
	blocks, ops := make([]Block, len(g.Blocks)), make([]OpSpec, n)
	var slab tensor.Slab
	slab.Reserve(weighted)
	rebound := make(map[*tensor.Storage]*tensor.Storage, weighted)
	for bi, b := range g.Blocks {
		nb := &blocks[bi]
		*nb = Block{
			Module:     b.Module,
			Ops:        ops[:len(b.Ops):len(b.Ops)],
			Checkpoint: b.Checkpoint,
			ExtraIn:    b.ExtraIn,
		}
		ops = ops[len(b.Ops):]
		copy(nb.Ops, b.Ops)
		for i := range nb.Ops {
			w := nb.Ops[i].Weight
			if w == nil {
				continue
			}
			if s, ok := rebound[w.Storage()]; ok {
				nb.Ops[i].Weight = w.WithStorage(s)
				continue
			}
			nw := slab.NewWeight(w.Name(), w.Shape(), w.DType(), w.Device())
			rebound[w.Storage()] = nw.Storage()
			nb.Ops[i].Weight = nw
		}
		clone.Blocks[bi] = nb
	}
	return clone
}

// Weights returns every distinct parameter tensor in graph order: the
// first op's view of each weight storage.
func (g *Graph) Weights() []*tensor.Tensor {
	_, weighted := g.size()
	ws := make([]*tensor.Tensor, 0, weighted)
	for _, b := range g.Blocks {
		for i := range b.Ops {
			if w := b.Ops[i].Weight; w != nil && !slices.ContainsFunc(ws, func(x *tensor.Tensor) bool { return x.Storage() == w.Storage() }) {
				ws = append(ws, w)
			}
		}
	}
	return ws
}

// size counts the graph's ops and, of those, the ops that take a weight.
func (g *Graph) size() (ops, weighted int) {
	for _, b := range g.Blocks {
		ops += len(b.Ops)
		for i := range b.Ops {
			if b.Ops[i].Weight != nil {
				weighted++
			}
		}
	}
	return ops, weighted
}

// WeightBytes sums parameter sizes.
func (g *Graph) WeightBytes() units.Bytes {
	var n units.Bytes
	for _, w := range g.Weights() {
		n += w.Bytes()
	}
	return n
}
