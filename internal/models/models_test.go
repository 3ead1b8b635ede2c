package models

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

func testConfig(arch Arch) Config {
	return Config{
		Arch: arch, Hidden: 2048, Layers: 4, HeadDim: 128, SeqLen: 512,
		Batch: 4, Vocab: 8192, FFNMult: 4, TP: 2, FlashAttention: true,
		DType: tensor.FP16,
	}
}

func build(t *testing.T, cfg Config) *autograd.Graph {
	t.Helper()
	g, err := Build(cfg, gpu.DefaultCostModel(gpu.A100PCIe()))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(GPT)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Hidden = 2000 // not divisible by head dim
	if bad.Validate() == nil {
		t.Error("bad hidden accepted")
	}
	bad = good
	bad.Vocab = 8191
	if bad.Validate() == nil {
		t.Error("odd vocab with TP2 accepted")
	}
	bad = good
	bad.Arch = "rnn"
	if bad.Validate() == nil {
		t.Error("unknown arch accepted")
	}
}

func TestLayerCounts(t *testing.T) {
	c := testConfig(T5)
	c.Layers = 5
	if c.EncoderLayers() != 3 || c.DecoderLayers() != 2 {
		t.Errorf("T5 split: enc %d dec %d (want 3/2: decoders are half, rounded down)",
			c.EncoderLayers(), c.DecoderLayers())
	}
	if testConfig(GPT).DecoderLayers() != 4 || testConfig(GPT).EncoderLayers() != 0 {
		t.Error("GPT layer counts wrong")
	}
	if testConfig(BERT).EncoderLayers() != 4 {
		t.Error("BERT layer counts wrong")
	}
}

func TestGraphStructure(t *testing.T) {
	for _, arch := range []Arch{GPT, BERT, T5} {
		g := build(t, testConfig(arch))
		// embed + layers + head (+T5: second embed).
		want := 1 + 4 + 1
		if arch == T5 {
			want = 1 + 2 + 1 + 2 + 1
		}
		if len(g.Blocks) != want {
			t.Errorf("%s blocks = %d, want %d", arch, len(g.Blocks), want)
		}
	}
}

// TestLayerOpsSizedOnce: the builder sizes each layer's op slice at its
// final length, fused or unfused, with and without cross-attention, so a
// first-seen shape's template build never regrows one.
func TestLayerOpsSizedOnce(t *testing.T) {
	for _, arch := range []Arch{GPT, BERT, T5} {
		for _, flash := range []bool{true, false} {
			cfg := testConfig(arch)
			cfg.FlashAttention = flash
			for _, blk := range build(t, cfg).Blocks {
				if len(blk.Ops) != cap(blk.Ops) {
					t.Errorf("%s flash=%v %s: %d ops in a slice sized for %d",
						arch, flash, blk.Module.Path(), len(blk.Ops), cap(blk.Ops))
				}
			}
		}
	}
}

// TestSavedBytesMatchKorthikanti is the Table III cross-check at unit
// level: the activation bytes that emerge from the op graph must match
// the analytic per-layer formula s·b·h·(10 + 24/t) within the small terms
// the formula ignores (LayerNorm statistics).
func TestSavedBytesMatchKorthikanti(t *testing.T) {
	cfg := testConfig(BERT)
	g := build(t, cfg)
	layer := g.Blocks[1] // first transformer layer
	hiddenBytes := units.Bytes(int64(cfg.Batch) * int64(cfg.SeqLen) * int64(cfg.Hidden) * 2)
	got := layer.SavedBytes(hiddenBytes, nil)
	sbh := float64(cfg.SeqLen) * float64(cfg.Batch) * float64(cfg.Hidden)
	want := units.Bytes(sbh * (10 + 24/float64(cfg.TP)))
	ratio := float64(got) / float64(want)
	if ratio < 0.97 || ratio > 1.08 {
		t.Errorf("per-layer saved bytes %v vs formula %v (ratio %.3f)", got, want, ratio)
	}
}

func TestUnfusedAttentionHasQuadraticActivations(t *testing.T) {
	fused := build(t, testConfig(BERT))
	cfg := testConfig(BERT)
	cfg.FlashAttention = false
	unfused := build(t, cfg)
	hiddenBytes := units.Bytes(int64(cfg.Batch) * int64(cfg.SeqLen) * int64(cfg.Hidden) * 2)
	f := fused.Blocks[1].SavedBytes(hiddenBytes, nil)
	u := unfused.Blocks[1].SavedBytes(hiddenBytes, nil)
	if u <= f {
		t.Errorf("unfused saved bytes %v not above fused %v", u, f)
	}
	// The gap should be roughly the 5as/h term (scores+probs+mask).
	sbh := float64(cfg.SeqLen) * float64(cfg.Batch) * float64(cfg.Hidden)
	term := units.Bytes(5 * sbh * float64(cfg.Heads()*cfg.SeqLen) / float64(cfg.Hidden) / float64(cfg.TP))
	ratio := float64(u-f) / float64(term)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("s² activation term = %v, want ≈ %v (ratio %.2f)", u-f, term, ratio)
	}
}

func TestWeightCountApproximation(t *testing.T) {
	cfg := testConfig(GPT)
	g := build(t, cfg)
	perGPU := int64(g.WeightBytes() / 2) // FP16 → params
	// Full params / TP: 12Lh²/2 + Vh/2 (tied embedding counted once).
	h := int64(cfg.Hidden)
	want := (12*int64(cfg.Layers)*h*h + int64(cfg.Vocab)*h) / int64(cfg.TP)
	ratio := float64(perGPU) / float64(want)
	if ratio < 0.95 || ratio > 1.1 {
		t.Errorf("per-GPU params %d vs 12Lh²+Vh sharded %d (ratio %.3f)", perGPU, want, ratio)
	}
}

func TestEmbeddingTiedToHead(t *testing.T) {
	g := build(t, testConfig(GPT))
	// The LM head weight must share storage with the embedding table
	// (weight tying) so Weights() dedups it.
	var table *tensor.Tensor
	for _, w := range g.Weights() {
		if w.Name() == "embed.table" {
			table = w
		}
	}
	if table == nil {
		t.Fatal("no embedding table found")
	}
	head := g.Blocks[len(g.Blocks)-1]
	var lm *tensor.Tensor
	for i := range head.Ops {
		if head.Ops[i].Weight != nil {
			lm = head.Ops[i].Weight
		}
	}
	if lm == nil || lm.Storage() != table.Storage() {
		t.Error("LM head is not tied to the embedding table")
	}
}

func TestCausalHalvesAttentionFLOPs(t *testing.T) {
	gpt := build(t, testConfig(GPT))   // causal
	bert := build(t, testConfig(BERT)) // bidirectional
	attnFLOPs := func(g *autograd.Graph) units.FLOPs {
		for _, b := range g.Blocks {
			for i := range b.Ops {
				if b.Ops[i].Name == "attn" {
					return b.Ops[i].FwdFLOPs
				}
			}
		}
		return 0
	}
	gf, bf := attnFLOPs(gpt), attnFLOPs(bert)
	if gf*2 != bf {
		t.Errorf("causal attention flops %v, bidirectional %v (want half)", gf, bf)
	}
}

func TestT5CrossAttentionWiring(t *testing.T) {
	cfg := testConfig(T5)
	g := build(t, cfg)
	encLast := 1 + cfg.EncoderLayers() - 1 // after enc_embed
	found := 0
	for _, b := range g.Blocks {
		if len(b.ExtraIn) == 1 && b.ExtraIn[0] == encLast {
			found++
			// The block must consume the extra exactly once via SaveExtra1.
			uses := 0
			for i := range b.Ops {
				if b.Ops[i].SaveExtra1 == 1 {
					uses++
				}
			}
			if uses != 1 {
				t.Errorf("decoder block consumes extra %d times", uses)
			}
		}
	}
	if found != cfg.DecoderLayers() {
		t.Errorf("%d decoder blocks reference the encoder output, want %d", found, cfg.DecoderLayers())
	}
}

func TestCheckpointFlagPropagates(t *testing.T) {
	cfg := testConfig(BERT)
	cfg.Checkpoint = true
	g := build(t, cfg)
	// Transformer layers checkpointed; embed and head not.
	if g.Blocks[0].Checkpoint || g.Blocks[len(g.Blocks)-1].Checkpoint {
		t.Error("embed/head should not checkpoint")
	}
	for _, b := range g.Blocks[1 : len(g.Blocks)-1] {
		if !b.Checkpoint {
			t.Error("layer not checkpointed")
		}
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig(BERT, 12288, 3, 16)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.TP != 2 || cfg.SeqLen != 1024 || cfg.HeadDim != 128 || !cfg.FlashAttention {
		t.Errorf("paper config wrong: %+v", cfg)
	}
	if cfg.Heads() != 96 {
		t.Errorf("heads = %d", cfg.Heads())
	}
	if len(Fig6Geometries()) != 3 {
		t.Error("geometry set wrong")
	}
}

func TestParamCountScale(t *testing.T) {
	// GPT-3 geometry should land near 175B.
	cfg := Config{Arch: GPT, Hidden: 12288, Layers: 96, HeadDim: 128, SeqLen: 2048,
		Batch: 1, Vocab: 50304, FFNMult: 4, TP: 8, FlashAttention: true}
	p := cfg.ParamCount()
	if p < 170e9 || p > 185e9 {
		t.Errorf("GPT-3 param count = %d", p)
	}
}

// TestTemplateSharedWhileHeld: callers asking for one configuration get
// the one template while any of them holds it, and the cache forgets it
// once none does, so a later call builds it again.
func TestTemplateSharedWhileHeld(t *testing.T) {
	cfg := testConfig(GPT)
	cfg.SeqLen = 384 // a key no other test builds
	cost := gpu.DefaultCostModel(gpu.A100PCIe())
	cached := func() bool {
		sharedGraphs.mu.Lock()
		defer sharedGraphs.mu.Unlock()
		_, ok := sharedGraphs.graphs[graphKey{cfg: cfg, cost: *cost}]
		return ok
	}
	func() {
		a, err := Template(cfg, cost)
		if err != nil {
			t.Fatal(err)
		}
		hits, builds := GraphCacheStats()
		b, err := Template(cfg, cost)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatal("a held template was built again")
		}
		if h, bl := GraphCacheStats(); h != hits+1 || bl != builds {
			t.Errorf("second call: %d hits, %d builds; want %d, %d", h, bl, hits+1, builds)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for cached() {
		if time.Now().After(deadline) {
			t.Fatal("the cache still holds a template no caller holds")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	_, builds := GraphCacheStats()
	if _, err := Template(cfg, cost); err != nil {
		t.Fatal(err)
	}
	if _, bl := GraphCacheStats(); bl != builds+1 {
		t.Errorf("a forgotten template was not rebuilt: %d builds, want %d", bl, builds+1)
	}
}

// TestValidateBoundsActivations: a configuration whose analytic
// activation volume per step passes MaxActivationBytes is a typed error;
// every paper geometry is far inside the bound.
func TestValidateBoundsActivations(t *testing.T) {
	huge := PaperConfig(GPT, 1<<18, 2, 1<<16)
	huge.SeqLen = 1 << 20
	var tooLarge *TooLargeError
	if err := huge.Validate(); !errors.As(err, &tooLarge) {
		t.Errorf("huge GPT: got %v, want *TooLargeError", err)
	}
	for _, arch := range []Arch{GPT, BERT, T5} {
		for _, g := range Fig6Geometries() {
			if err := PaperConfig(arch, g[0], g[1], 64).Validate(); err != nil {
				t.Errorf("%s %v: %v", arch, g, err)
			}
		}
	}
}

// TestConfigString pins the column label's form and that it costs one
// allocation, the string itself.
func TestConfigString(t *testing.T) {
	for _, c := range []Config{PaperConfig(GPT, 8192, 4, 16), PaperConfig(T5, 12288, 16, 2), {Arch: BERT, Hidden: -1}} {
		want := fmt.Sprintf("%s H%d L%d B%d", c.Arch, c.Hidden, c.Layers, c.Batch)
		if got := c.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if n := testing.AllocsPerRun(10, func() { _ = c.String() }); n != 1 {
			t.Errorf("%v: String allocates %v objects, want 1", c, n)
		}
	}
}
