package models

import (
	"strconv"
	"strings"
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// builder assembles a per-GPU (tensor-parallel shard) op graph. A
// template is built once per first-seen shape, from a few pieces sized
// for the whole graph: one array each of ops and blocks, one slab of
// weights, one buffer of names, and one shape per distinct dimension
// list, shared by every op and weight that has it (shapes are
// immutable).
type builder struct {
	cfg  Config
	cost *gpu.CostModel
	// embedTable is the vocab-parallel embedding, tied to the LM head.
	embedTable *tensor.Tensor

	ops     []autograd.OpSpec
	weights tensor.Slab
	names   strings.Builder
	shapes  []tensor.Shape
	dims    []int
}

// Build constructs the training graph for one tensor-parallel rank.
func Build(cfg Config, cost *gpu.CostModel) (*autograd.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &builder{cfg: cfg, cost: cost}

	// The graph is one stack of layers between an embedding and the head;
	// T5 has two, the encoder's and the decoder's, each with its own
	// embedding, and its decoder layers cross-attend to the encoder.
	type stack struct {
		embed, prefix string
		layers        int
	}
	stacks := []stack{{"embed", "layers.", cfg.Layers}}
	headName := "head"
	switch cfg.Arch {
	case BERT:
		headName = "mlm_head"
	case T5:
		stacks = []stack{{"enc_embed", "enc.", cfg.EncoderLayers()}, {"dec_embed", "dec.", cfg.DecoderLayers()}}
	}
	cross := func(si int) bool { return cfg.Arch == T5 && si == 1 }
	// Twelve ops per layer, three more for the unfused softmax chain,
	// seven more for cross-attention; two per embedding, three in the head.
	layerOps := 12
	if !cfg.FlashAttention {
		layerOps += 3
	}

	// Size every piece: a layer's module name is its prefix and index,
	// and each of its four weights (seven with cross-attention) is named
	// after it (layerBlock). A graph has about a dozen distinct shapes.
	blocks, ops, weights, names := 1, 3, 1, 0
	for si, st := range stacks {
		blocks += 1 + st.layers
		ops += 2 + st.layers*layerOps
		nw, suffixes := 4, len(".wqkv.wproj.wfc1.wfc2")
		if cross(si) {
			ops += 7 * st.layers
			nw, suffixes = 7, suffixes+len(".wxkv.wxq.wxo")
		}
		weights += nw * st.layers
		for i := 0; i < st.layers; i++ {
			names += (1+nw)*(len(st.prefix)+len(strconv.Itoa(i))) + suffixes
		}
	}
	b.names.Grow(names)
	b.ops = make([]autograd.OpSpec, ops)
	b.weights.Reserve(weights)
	b.shapes = make([]tensor.Shape, 0, 16)
	b.dims = make([]int, 0, 64)

	modNames := make([]string, 0, blocks)
	for _, st := range stacks {
		modNames = append(modNames, st.embed)
		for i := 0; i < st.layers; i++ {
			modNames = append(modNames, b.cat(st.prefix, strconv.Itoa(i)))
		}
	}
	root := autograd.NewModules(string(cfg.Arch), append(modNames, headName))
	mods := root.Children()

	b.embedTable = b.weights.NewWeight("embed.table",
		b.shape(cfg.Vocab/cfg.TP, cfg.Hidden), cfg.DType, tensor.GPU)
	g := &autograd.Graph{
		Name:       cfg.String(),
		Root:       root,
		InputShape: tensor.NewShape(cfg.Batch, cfg.SeqLen),
		InputDType: tensor.INT32,
		Blocks:     make([]*autograd.Block, blocks),
	}
	blockArr := make([]autograd.Block, blocks)
	for i := range g.Blocks {
		g.Blocks[i] = &blockArr[i]
	}
	// Every decoder layer cross-attends to the encoder's last layer; they
	// share one ExtraIn list (block lists are immutable).
	var encOut []int
	bi := 0
	for si, st := range stacks {
		// The decoder embedding consumes fresh token ids; its chain input
		// (the encoder output) is a graph-plumbing artifact and is not
		// registered for backward.
		b.embedBlock(g.Blocks[bi], mods[bi], si == 0)
		bi++
		for i := 0; i < st.layers; i++ {
			var extraIn []int
			if cross(si) {
				extraIn = encOut
			}
			b.layerBlock(g.Blocks[bi], mods[bi], cfg.Arch == GPT || cross(si), extraIn, layerOps)
			bi++
		}
		if cross(si + 1) {
			encOut = []int{bi - 1}
		}
	}
	b.headBlock(g.Blocks[bi], mods[bi])

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// --- shape, name and cost helpers ---

func (b *builder) bytesOf(shape tensor.Shape) units.Bytes {
	return units.Bytes(shape.NumElems() * int64(b.cfg.DType.Size()))
}

func (b *builder) mem(bytes units.Bytes) time.Duration {
	return b.cost.MemoryBound(bytes)
}

// shape returns the graph's one shape with these dimensions, making it
// on first use.
func (b *builder) shape(dims ...int) tensor.Shape {
	for _, s := range b.shapes {
		if s.Equal(dims) {
			return s
		}
	}
	n := len(b.dims)
	b.dims = append(b.dims, dims...)
	s := tensor.NewShape(b.dims[n:len(b.dims):len(b.dims)]...)
	b.shapes = append(b.shapes, s)
	return s
}

// hiddenShape is [batch, seq, d].
func (b *builder) hiddenShape(d int) tensor.Shape {
	return b.shape(b.cfg.Batch, b.cfg.SeqLen, d)
}

// cat writes parts into the names buffer as one name sharing it.
func (b *builder) cat(parts ...string) string {
	start := b.names.Len()
	for _, p := range parts {
		b.names.WriteString(p)
	}
	return b.names.String()[start:]
}

// weight returns a new parameter of the layer module m, named after it.
func (b *builder) weight(m *autograd.Module, suffix string, shape tensor.Shape) *tensor.Tensor {
	return b.weights.NewWeight(b.cat(m.Name(), suffix), shape, b.cfg.DType, tensor.GPU)
}

// take returns the next n ops of the graph's op array, for one block.
func (b *builder) take(n int) []autograd.OpSpec {
	ops := b.ops[:0:n]
	b.ops = b.ops[n:]
	return ops
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

// embedBlock builds the token embedding + dropout into blk. saveIDs
// registers the input token ids (a small tensor exercising the pack
// early-return path).
func (b *builder) embedBlock(blk *autograd.Block, m *autograd.Module, saveIDs bool) {
	cfg := b.cfg
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
	*blk = autograd.Block{Module: m, Ops: append(b.take(2), lookup, b.dropoutOp("drop", out))}
}

// layerBlock builds one transformer layer (pre-LN) of size ops into blk.
// causal selects decoder attention; an extraIn block adds a T5
// cross-attention sublayer consuming that block's output.
func (b *builder) layerBlock(blk *autograd.Block, m *autograd.Module, causal bool, extraIn []int, size int) {
	cfg := b.cfg
	h := int64(cfg.Hidden)
	t := int64(cfg.TP)
	n := cfg.Tokens()
	hl := int(h / t)
	ffnLocal := int(h) * cfg.FFNMult / int(t)
	hidden := b.hiddenShape(int(h))
	e := cfg.DType.Size()

	if extraIn != nil {
		size += 7
	}
	ops := b.take(size)
	push := func(op autograd.OpSpec) int {
		ops = append(ops, op)
		return len(ops) // 1-based index of the pushed op
	}

	// Self-attention sublayer.
	push(b.lnOp("ln1", hidden))
	wqkv := b.weight(m, ".wqkv", b.shape(int(h), 3*hl))
	push(b.linearOp("qkv", n, h, 3*(h/t), b.hiddenShape(3*hl), wqkv))
	if cfg.FlashAttention {
		push(b.fusedAttnOp("attn", causal, int64(cfg.SeqLen)))
	} else {
		b.pushUnfusedAttention(&ops, causal)
	}
	wproj := b.weight(m, ".wproj", b.shape(hl, int(h)))
	proj := b.linearOp("proj", n, h/t, h, hidden, wproj)
	// Row-parallel linear: all-reduce of the output in forward; the
	// column-parallel qkv gets the conjugate all-reduce in backward.
	proj.FwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
	ops[1].BwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
	push(proj)
	push(b.dropoutOp("drop1", hidden))
	push(b.addOp("add1", hidden))
	addSelf := len(ops)

	if extraIn != nil {
		// T5 cross-attention sublayer. The kv projection consumes the
		// encoder output — the same tensor in every decoder layer, which
		// the cache deduplicates (§III-C1).
		lnx := push(b.lnOp("lnx", hidden))
		wkv := b.weight(m, ".wxkv", b.shape(int(h), 2*hl))
		kv := b.linearOp("xkv", n, h, 2*(h/t), b.hiddenShape(2*hl), wkv)
		kv.InputFrom1 = lnx
		kv.SaveInput = false // its compute input is the encoder output
		kv.SaveExtra1 = 1
		kvIdx := push(kv)
		wq := b.weight(m, ".wxq", b.shape(int(h), hl))
		q := b.linearOp("xq", n, h, h/t, b.hiddenShape(hl), wq)
		q.InputFrom1 = lnx
		qIdx := push(q)
		xattn := b.fusedAttnOp("xattn", false, int64(cfg.SeqLen))
		xattn.InputFrom1 = qIdx
		xattn.SaveOther1 = kvIdx
		push(xattn)
		wxo := b.weight(m, ".wxo", b.shape(hl, int(h)))
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
	wfc1 := b.weight(m, ".wfc1", b.shape(int(h), ffnLocal))
	fc1Idx := push(b.linearOp("fc1", n, h, int64(ffnLocal), b.hiddenShape(ffnLocal), wfc1))
	push(b.geluOp("gelu", b.hiddenShape(ffnLocal)))
	wfc2 := b.weight(m, ".wfc2", b.shape(ffnLocal, int(h)))
	fc2 := b.linearOp("fc2", n, int64(ffnLocal), h, hidden, wfc2)
	fc2.FwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
	ops[fc1Idx-1].BwdTime += b.cost.AllReduceTime(b.bytesOf(hidden), cfg.TP)
	push(fc2)
	push(b.dropoutOp("drop2", hidden))
	push(b.addOp("add2", hidden))

	_ = e
	*blk = autograd.Block{
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
	scoreShape := b.shape(cfg.Batch, int(headsLocal), cfg.SeqLen, cfg.SeqLen)
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

// headBlock builds the final LayerNorm, the (embedding-tied) vocabulary
// projection, and the cross-entropy loss into blk.
func (b *builder) headBlock(blk *autograd.Block, m *autograd.Module) {
	cfg := b.cfg
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
	*blk = autograd.Block{Module: m, Ops: append(b.take(3), lnf, lm, ce)}
}
