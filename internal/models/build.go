package models

import (
	"fmt"
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// builder assembles a per-GPU (tensor-parallel shard) op graph.
type builder struct {
	cfg  Config
	cost *gpu.CostModel
	root *autograd.Module
	// embedTable is the vocab-parallel embedding, tied to the LM head.
	embedTable *tensor.Tensor
}

// Build constructs the training graph for one tensor-parallel rank.
func Build(cfg Config, cost *gpu.CostModel) (*autograd.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &builder{cfg: cfg, cost: cost, root: autograd.NewModule(string(cfg.Arch))}
	e := cfg.DType.Size()
	b.embedTable = tensor.NewWeight("embed.table",
		tensor.NewShape(cfg.Vocab/cfg.TP, cfg.Hidden), cfg.DType, tensor.GPU)

	g := &autograd.Graph{
		Name:       cfg.String(),
		Root:       b.root,
		InputShape: tensor.NewShape(cfg.Batch, cfg.SeqLen),
		InputDType: tensor.INT32,
		// The layers plus at most two embeddings and a head.
		Blocks: make([]*autograd.Block, 0, cfg.Layers+3),
	}

	switch cfg.Arch {
	case GPT:
		g.Blocks = append(g.Blocks, b.embedBlock("embed", true))
		for i := 0; i < cfg.Layers; i++ {
			g.Blocks = append(g.Blocks, b.layerBlock(fmt.Sprintf("layers.%d", i), true, -1))
		}
		g.Blocks = append(g.Blocks, b.headBlock("head"))
	case BERT:
		g.Blocks = append(g.Blocks, b.embedBlock("embed", true))
		for i := 0; i < cfg.Layers; i++ {
			g.Blocks = append(g.Blocks, b.layerBlock(fmt.Sprintf("layers.%d", i), false, -1))
		}
		g.Blocks = append(g.Blocks, b.headBlock("mlm_head"))
	case T5:
		enc := cfg.EncoderLayers()
		dec := cfg.DecoderLayers()
		g.Blocks = append(g.Blocks, b.embedBlock("enc_embed", true))
		for i := 0; i < enc; i++ {
			g.Blocks = append(g.Blocks, b.layerBlock(fmt.Sprintf("enc.%d", i), false, -1))
		}
		encLast := len(g.Blocks) - 1
		// The decoder embedding consumes fresh token ids; its chain input
		// (the encoder output) is a graph-plumbing artifact and is not
		// registered for backward.
		g.Blocks = append(g.Blocks, b.embedBlock("dec_embed", false))
		for i := 0; i < dec; i++ {
			g.Blocks = append(g.Blocks, b.layerBlock(fmt.Sprintf("dec.%d", i), true, encLast))
		}
		g.Blocks = append(g.Blocks, b.headBlock("head"))
	}

	_ = e
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// --- shape and cost helpers ---

func (b *builder) bytesOf(shape tensor.Shape) units.Bytes {
	return units.Bytes(shape.NumElems() * int64(b.cfg.DType.Size()))
}

func (b *builder) mem(bytes units.Bytes) time.Duration {
	return b.cost.MemoryBound(bytes)
}

// hiddenShape is [batch, seq, dims...].
func (b *builder) hiddenShape(dims ...int) tensor.Shape {
	s := []int{b.cfg.Batch, b.cfg.SeqLen}
	return tensor.NewShape(append(s, dims...)...)
}

// lnOp is LayerNorm: memory-bound, saves its input plus per-token stats.
func (b *builder) lnOp(name string, shape tensor.Shape) autograd.OpSpec {
	bytes := b.bytesOf(shape)
	return autograd.OpSpec{
		Name:           name,
		FwdTime:        b.mem(2 * bytes),
		BwdTime:        b.mem(3 * bytes),
		OutShape:       shape,
		OutDType:       b.cfg.DType,
		SaveInput:      true,
		SaveStatsElems: 2 * b.cfg.Tokens(),
	}
}

// linearOp is a GEMM with a parameter: saves its input (for the weight
// gradient); the executor registers the weight's transposed view.
func (b *builder) linearOp(name string, m, k, n int64, outShape tensor.Shape, w *tensor.Tensor) autograd.OpSpec {
	e := b.cfg.DType.Size()
	return autograd.OpSpec{
		Name:      name,
		FwdTime:   b.cost.Matmul(m, k, n, e),
		BwdTime:   b.cost.Matmul(m, n, k, e) + b.cost.Matmul(k, m, n, e),
		FwdFLOPs:  gpu.MatmulFLOPs(m, k, n),
		BwdFLOPs:  2 * gpu.MatmulFLOPs(m, k, n),
		OutShape:  outShape,
		OutDType:  b.cfg.DType,
		SaveInput: true,
		Weight:    w,
	}
}

// dropoutOp is memory-bound and saves a byte mask.
func (b *builder) dropoutOp(name string, shape tensor.Shape) autograd.OpSpec {
	bytes := b.bytesOf(shape)
	mask := units.Bytes(shape.NumElems())
	return autograd.OpSpec{
		Name:     name,
		FwdTime:  b.mem(2*bytes + mask),
		BwdTime:  b.mem(2*bytes + mask),
		OutShape: shape,
		OutDType: b.cfg.DType,
		SaveMask: true,
	}
}

// addOp is the residual addition; backward is a gradient pass-through.
func (b *builder) addOp(name string, shape tensor.Shape) autograd.OpSpec {
	bytes := b.bytesOf(shape)
	return autograd.OpSpec{
		Name:     name,
		FwdTime:  b.mem(3 * bytes),
		BwdTime:  b.mem(2 * bytes),
		OutShape: shape,
		OutDType: b.cfg.DType,
	}
}

// geluOp saves its input for the activation gradient.
func (b *builder) geluOp(name string, shape tensor.Shape) autograd.OpSpec {
	bytes := b.bytesOf(shape)
	return autograd.OpSpec{
		Name:      name,
		FwdTime:   b.mem(2 * bytes),
		BwdTime:   b.mem(3 * bytes),
		OutShape:  shape,
		OutDType:  b.cfg.DType,
		SaveInput: true,
	}
}

// fusedAttnOp is the FlashAttention kernel: saves q/k/v (its input), its
// output, and the per-(head,token) log-sum-exp stats; the s² score matrix
// never materializes (§IV-C's selective-checkpointing discussion).
func (b *builder) fusedAttnOp(name string, causal bool, kvSeq int64) autograd.OpSpec {
	cfg := b.cfg
	n := cfg.Tokens()
	hl := int64(cfg.Hidden / cfg.TP)
	headsLocal := int64(cfg.Heads() / cfg.TP)
	flops := units.FLOPs(4 * float64(n) * float64(kvSeq) * float64(hl))
	if causal {
		flops /= 2
	}
	io := units.Bytes((3*kvSeq*int64(cfg.Batch) + n) * hl * int64(cfg.DType.Size()))
	return autograd.OpSpec{
		Name:           name,
		FwdTime:        b.cost.FusedAttention(flops, io),
		BwdTime:        b.cost.FusedAttention(2.5*flops, io),
		FwdFLOPs:       flops,
		BwdFLOPs:       2.5 * flops,
		OutShape:       b.hiddenShape(int(hl)),
		OutDType:       cfg.DType,
		SaveInput:      true,
		SaveOutput:     true,
		SaveStatsElems: n * headsLocal,
	}
}

// embedBlock is the token embedding + dropout. saveIDs registers the
// input token ids (a small tensor exercising the pack early-return path).
func (b *builder) embedBlock(name string, saveIDs bool) *autograd.Block {
	cfg := b.cfg
	m := b.root.Child(name)
	h := cfg.Hidden
	out := b.hiddenShape(h)
	bytes := b.bytesOf(out)
	lookup := autograd.OpSpec{
		Name: "lookup",
		// Gather of the rows plus the vocab-parallel all-reduce.
		FwdTime:   b.mem(bytes) + b.cost.AllReduceTime(bytes, cfg.TP),
		BwdTime:   b.mem(2 * bytes),
		OutShape:  out,
		OutDType:  cfg.DType,
		SaveInput: saveIDs, // token ids: small, takes the pack early-return path
		Weight:    b.embedTable,
	}
	drop := b.dropoutOp("drop", out)
	return &autograd.Block{Module: m, Ops: []autograd.OpSpec{lookup, drop}}
}

// layerBlock is one transformer layer (pre-LN). causal selects decoder
// attention; encLast ≥ 0 adds a T5 cross-attention sublayer consuming
// that block's output.
func (b *builder) layerBlock(name string, causal bool, encLast int) *autograd.Block {
	cfg := b.cfg
	m := b.root.Child(name)
	h := int64(cfg.Hidden)
	t := int64(cfg.TP)
	n := cfg.Tokens()
	hl := int(h / t)
	ffnLocal := int(h) * cfg.FFNMult / int(t)
	hidden := b.hiddenShape(int(h))
	e := cfg.DType.Size()

	// Twelve ops, three more for the unfused softmax chain, seven more for
	// cross-attention: the slice is allocated once, at its final size.
	size := 12
	if !cfg.FlashAttention {
		size += 3
	}
	if encLast >= 0 {
		size += 7
	}
	ops := make([]autograd.OpSpec, 0, size)
	push := func(op autograd.OpSpec) int {
		ops = append(ops, op)
		return len(ops) // 1-based index of the pushed op
	}

	// Self-attention sublayer.
	push(b.lnOp("ln1", hidden))
	wqkv := tensor.NewWeight(name+".wqkv", tensor.NewShape(int(h), 3*hl), cfg.DType, tensor.GPU)
	push(b.linearOp("qkv", n, h, 3*(h/t), b.hiddenShape(3*hl), wqkv))
	if cfg.FlashAttention {
		push(b.fusedAttnOp("attn", causal, int64(cfg.SeqLen)))
	} else {
		b.pushUnfusedAttention(&ops, causal)
	}
	wproj := tensor.NewWeight(name+".wproj", tensor.NewShape(hl, int(h)), cfg.DType, tensor.GPU)
	proj := b.linearOp("proj", n, h/t, h, hidden, wproj)
	// Row-parallel linear: all-reduce of the output in forward; the
	// column-parallel qkv gets the conjugate all-reduce in backward.
	proj.FwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
	ops[1].BwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
	push(proj)
	push(b.dropoutOp("drop1", hidden))
	push(b.addOp("add1", hidden))
	addSelf := len(ops)

	extraIn := []int(nil)
	if encLast >= 0 {
		// T5 cross-attention sublayer. The kv projection consumes the
		// encoder output — the same tensor in every decoder layer, which
		// the cache deduplicates (§III-C1).
		extraIn = []int{encLast}
		lnx := push(b.lnOp("lnx", hidden))
		wkv := tensor.NewWeight(name+".wxkv", tensor.NewShape(int(h), 2*hl), cfg.DType, tensor.GPU)
		kv := b.linearOp("xkv", n, h, 2*(h/t), b.hiddenShape(2*hl), wkv)
		kv.InputFrom1 = lnx
		kv.SaveInput = false // its compute input is the encoder output
		kv.SaveExtra1 = 1
		kvIdx := push(kv)
		wq := tensor.NewWeight(name+".wxq", tensor.NewShape(int(h), hl), cfg.DType, tensor.GPU)
		q := b.linearOp("xq", n, h, h/t, b.hiddenShape(hl), wq)
		q.InputFrom1 = lnx
		qIdx := push(q)
		xattn := b.fusedAttnOp("xattn", false, int64(cfg.SeqLen))
		xattn.InputFrom1 = qIdx
		xattn.SaveOther1 = kvIdx
		push(xattn)
		wxo := tensor.NewWeight(name+".wxo", tensor.NewShape(hl, int(h)), cfg.DType, tensor.GPU)
		xproj := b.linearOp("xproj", n, h/t, h, hidden, wxo)
		xproj.FwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
		ops[kvIdx-1].BwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
		push(xproj)
		push(b.dropoutOp("dropx", hidden))
		addX := b.addOp("addx", hidden)
		// The residual operand (the self-attention sublayer output) is the
		// longer-lived input; the dropout output is consumed immediately.
		addX.InputFrom1 = addSelf
		push(addX)
	}

	// MLP sublayer.
	push(b.lnOp("ln2", hidden))
	wfc1 := tensor.NewWeight(name+".wfc1", tensor.NewShape(int(h), ffnLocal), cfg.DType, tensor.GPU)
	fc1Idx := push(b.linearOp("fc1", n, h, int64(ffnLocal), b.hiddenShape(ffnLocal), wfc1))
	push(b.geluOp("gelu", b.hiddenShape(ffnLocal)))
	wfc2 := tensor.NewWeight(name+".wfc2", tensor.NewShape(ffnLocal, int(h)), cfg.DType, tensor.GPU)
	fc2 := b.linearOp("fc2", n, int64(ffnLocal), h, hidden, wfc2)
	fc2.FwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
	ops[fc1Idx-1].BwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
	push(fc2)
	push(b.dropoutOp("drop2", hidden))
	push(b.addOp("add2", hidden))

	_ = e
	return &autograd.Block{
		Module:     m,
		Ops:        ops,
		Checkpoint: cfg.Checkpoint,
		ExtraIn:    extraIn,
	}
}

// pushUnfusedAttention emits the pre-FlashAttention softmax chain with its
// s²-sized activations (scores, probabilities, dropout mask) — the memory
// regime Megatron's selective checkpointing was invented for (§IV-C).
func (b *builder) pushUnfusedAttention(ops *[]autograd.OpSpec, causal bool) {
	cfg := b.cfg
	s := int64(cfg.SeqLen)
	d := int64(cfg.HeadDim)
	headsLocal := int64(cfg.Heads() / cfg.TP)
	batchHeads := int64(cfg.Batch) * headsLocal
	hl := cfg.Hidden / cfg.TP
	e := cfg.DType.Size()
	scoreShape := tensor.NewShape(cfg.Batch, int(headsLocal), cfg.SeqLen, cfg.SeqLen)
	scoreBytes := units.Bytes(scoreShape.NumElems() * int64(e))
	causalScale := 1.0
	if causal {
		causalScale = 0.5
	}

	scores := autograd.OpSpec{
		Name:      "scores",
		FwdTime:   time.Duration(causalScale * float64(b.cost.BatchedMatmul(batchHeads, s, d, s, e))),
		BwdTime:   time.Duration(causalScale * float64(2*b.cost.BatchedMatmul(batchHeads, s, d, s, e))),
		FwdFLOPs:  units.FLOPs(causalScale * float64(2*batchHeads*s*d*s)),
		BwdFLOPs:  units.FLOPs(causalScale * float64(4*batchHeads*s*d*s)),
		OutShape:  scoreShape,
		OutDType:  cfg.DType,
		SaveInput: true, // q,k,v — needed for their gradients
	}
	softmax := autograd.OpSpec{
		Name:       "softmax",
		FwdTime:    b.mem(2 * scoreBytes),
		BwdTime:    b.mem(3 * scoreBytes),
		OutShape:   scoreShape,
		OutDType:   cfg.DType,
		SaveOutput: true,
	}
	adrop := b.dropoutOp("attn_drop", scoreShape)
	ctx := autograd.OpSpec{
		Name:      "context",
		FwdTime:   time.Duration(causalScale * float64(b.cost.BatchedMatmul(batchHeads, s, s, d, e))),
		BwdTime:   time.Duration(causalScale * float64(2*b.cost.BatchedMatmul(batchHeads, s, s, d, e))),
		FwdFLOPs:  units.FLOPs(causalScale * float64(2*batchHeads*s*s*d)),
		BwdFLOPs:  units.FLOPs(causalScale * float64(4*batchHeads*s*s*d)),
		OutShape:  b.hiddenShape(hl),
		OutDType:  cfg.DType,
		SaveInput: true, // dropped probabilities
	}
	*ops = append(*ops, scores, softmax, adrop, ctx)
}

// headBlock is the final LayerNorm, the (embedding-tied) vocabulary
// projection, and the cross-entropy loss.
func (b *builder) headBlock(name string) *autograd.Block {
	cfg := b.cfg
	m := b.root.Child(name)
	h := int64(cfg.Hidden)
	n := cfg.Tokens()
	vLocal := cfg.Vocab / cfg.TP
	hidden := b.hiddenShape(cfg.Hidden)
	logits := b.hiddenShape(vLocal)
	logitBytes := b.bytesOf(logits)

	lnf := b.lnOp("ln_f", hidden)
	// The LM head weight is the transposed view of the embedding table
	// (weight tying): its pack identifier must stay stable across steps,
	// which is the §III-C1 get_id requirement.
	lm := b.linearOp("lm_head", n, h, int64(vLocal), logits, b.embedTable.Transpose())
	ce := autograd.OpSpec{
		Name:       "ce_loss",
		FwdTime:    b.mem(3 * logitBytes),
		BwdTime:    b.mem(2 * logitBytes),
		OutShape:   logits,
		OutDType:   cfg.DType,
		SaveOutput: true, // softmax probabilities for the CE gradient
	}
	return &autograd.Block{Module: m, Ops: []autograd.OpSpec{lnf, lm, ce}}
}
