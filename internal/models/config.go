// Package models builds the transformer op graphs the paper evaluates:
// GPT (decoder-only), BERT (encoder-only) and T5 (encoder-decoder), with
// Megatron-style tensor-parallel sharding, FlashAttention-style fused
// attention (or the unfused chain for ablations), and optional layerwise
// activation checkpointing. Kernel times come from the GPU cost model;
// activation sizes are not hand-coded — they emerge from which tensors
// each op registers for backward, exactly as they do in PyTorch, which is
// what makes the Table III "measured vs analytic estimate" comparison a
// real check rather than a tautology.
package models

import (
	"fmt"
	"strconv"

	"ssdtrain/internal/tensor"
)

// Arch selects the model family.
type Arch string

// Supported architectures (§II-A's three transformer classes).
const (
	GPT  Arch = "gpt"  // decoder-only
	BERT Arch = "bert" // encoder-only
	T5   Arch = "t5"   // encoder-decoder
)

// Config describes one training configuration (one Fig 6 column).
type Config struct {
	Arch Arch
	// Hidden is the model dimension (the paper sweeps 8192–16384).
	Hidden int
	// Layers is the total transformer layer count; for T5 the decoder
	// gets ⌊Layers/2⌋ of them (§IV-A).
	Layers int
	// HeadDim is the attention head dimension (128 in the paper).
	HeadDim int
	// SeqLen is the text sequence length (1024 in the paper).
	SeqLen int
	// Batch is the micro-batch size in sequences.
	Batch int
	// Vocab is the (padded) vocabulary size.
	Vocab int
	// FFNMult is the MLP expansion factor (4).
	FFNMult int
	// TP is the tensor-parallel degree (2 in the paper's testbed).
	TP int
	// FlashAttention selects the fused attention kernel; when false the
	// unfused softmax chain (with its s² activations) is emitted.
	FlashAttention bool
	// Checkpoint enables layerwise full recomputation on every
	// transformer layer (the paper's "Recompute" strategy).
	Checkpoint bool
	// DType is the training precision (FP16 in the paper).
	DType tensor.DType
}

// Validate checks shape divisibility constraints.
func (c Config) Validate() error {
	if c.Hidden <= 0 || c.Layers <= 0 || c.SeqLen <= 0 || c.Batch <= 0 {
		return fmt.Errorf("models: non-positive dimension in %+v", c)
	}
	if c.HeadDim <= 0 || c.Hidden%c.HeadDim != 0 {
		return fmt.Errorf("models: hidden %d not divisible by head dim %d", c.Hidden, c.HeadDim)
	}
	if c.TP <= 0 {
		return fmt.Errorf("models: TP degree must be positive")
	}
	if c.Heads()%c.TP != 0 {
		return fmt.Errorf("models: heads %d not divisible by TP %d", c.Heads(), c.TP)
	}
	if c.Vocab%c.TP != 0 {
		return fmt.Errorf("models: vocab %d not divisible by TP %d", c.Vocab, c.TP)
	}
	if (c.Hidden*c.FFNMult)%c.TP != 0 {
		return fmt.Errorf("models: FFN width not divisible by TP %d", c.TP)
	}
	if c.Arch != GPT && c.Arch != BERT && c.Arch != T5 {
		return fmt.Errorf("models: unknown arch %q", c.Arch)
	}
	if a := c.activationBytes(); a > MaxActivationBytes {
		return &TooLargeError{Config: c, ActivationBytes: a}
	}
	return nil
}

// MaxActivationBytes bounds a configuration's analytic activation volume
// per micro-batch step (1 TiB, far past any GPU's memory). The simulator
// counts bytes and nanoseconds in int64; below this bound its sums over
// tensors, micro-batches, steps and tiers keep a factor of 2^23 of
// headroom, and above it they can wrap.
const MaxActivationBytes = 1 << 40

// TooLargeError rejects a configuration whose analytic activation volume
// per micro-batch step passes MaxActivationBytes.
type TooLargeError struct {
	Config          Config
	ActivationBytes float64
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("models: %v produces about %.3g activation bytes per step, past the limit of %d",
		e.Config, e.ActivationBytes, MaxActivationBytes)
}

// activationBytes is the analytic activation volume of one micro-batch
// step: Korthikanti et al.'s s·b·h·(10 + 24/t) bytes per layer, plus the
// unfused softmax chain's 5·a·s²·b/t without FlashAttention. It is a
// float64 so that it cannot overflow.
func (c Config) activationBytes() float64 {
	s, b, h, t := float64(c.SeqLen), float64(c.Batch), float64(c.Hidden), float64(c.TP)
	perLayer := s * b * h * (10 + 24/t)
	if !c.FlashAttention {
		perLayer += 5 * float64(c.Heads()) * s * s * b / t
	}
	return perLayer * float64(c.Layers)
}

// Heads returns the attention head count.
func (c Config) Heads() int { return c.Hidden / c.HeadDim }

// Tokens returns tokens per micro-batch (Batch × SeqLen).
func (c Config) Tokens() int64 { return int64(c.Batch) * int64(c.SeqLen) }

// EncoderLayers returns the encoder layer count (0 for GPT).
func (c Config) EncoderLayers() int {
	switch c.Arch {
	case T5:
		return c.Layers - c.Layers/2
	case BERT:
		return c.Layers
	default:
		return 0
	}
}

// DecoderLayers returns the decoder layer count (0 for BERT).
func (c Config) DecoderLayers() int {
	switch c.Arch {
	case T5:
		return c.Layers / 2
	case GPT:
		return c.Layers
	default:
		return 0
	}
}

// String renders the configuration the way the paper labels columns,
// "gpt H8192 L4 B16", in one allocation: the service renders it into
// every plan response.
func (c Config) String() string {
	var buf [64]byte
	b := append(buf[:0], c.Arch...)
	b = append(b, " H"...)
	b = strconv.AppendInt(b, int64(c.Hidden), 10)
	b = append(b, " L"...)
	b = strconv.AppendInt(b, int64(c.Layers), 10)
	b = append(b, " B"...)
	b = strconv.AppendInt(b, int64(c.Batch), 10)
	return string(b)
}

// defaultVocab returns the padded per-architecture vocabulary.
func defaultVocab(a Arch) int {
	switch a {
	case BERT:
		return 30720 // BERT's 30522, padded for TP divisibility
	case T5:
		return 32256 // T5's 32128, padded
	default:
		return 50304 // GPT-2's 50257, padded (Megatron convention)
	}
}

// PaperConfig returns the §IV-A evaluation configuration for an
// architecture and geometry: TP2, sequence 1024, head dim 128, FP16,
// FlashAttention-2 enabled.
func PaperConfig(arch Arch, hidden, layers, batch int) Config {
	return Config{
		Arch:           arch,
		Hidden:         hidden,
		Layers:         layers,
		HeadDim:        128,
		SeqLen:         1024,
		Batch:          batch,
		Vocab:          defaultVocab(arch),
		FFNMult:        4,
		TP:             2,
		FlashAttention: true,
		DType:          tensor.FP16,
	}
}

// Fig6Geometries returns the paper's three (hidden, layers) evaluation
// points.
func Fig6Geometries() [][2]int {
	return [][2]int{{8192, 4}, {12288, 3}, {16384, 2}}
}
