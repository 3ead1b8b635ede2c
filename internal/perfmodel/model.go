// Package perfmodel ports the paper's §III-D performance modelling (built
// on llm-analysis): a per-layer roofline pipeline
//
//	t = max( Σ_l max(t_l,compute, t_l,memory), t_ZeRO,communicate )
//
// combined with pipeline scheduling, analytic activation-size formulas,
// and the SSD endurance model, to project step time, per-GPU activation
// volume, required PCIe write bandwidth and SSD lifespan for large-scale
// systems (Fig 5), upscaling behaviour (Fig 8b), and the Table III
// offload estimates.
package perfmodel

import (
	"fmt"
	"time"

	"ssdtrain/internal/gpu"
	"ssdtrain/internal/parallel"
	"ssdtrain/internal/ssd"
	"ssdtrain/internal/units"
)

// LLM describes a large model for projection purposes.
type LLM struct {
	Name   string
	Hidden int
	Layers int
	Seq    int
	Vocab  int
	// Causal halves fused-attention work (decoder models).
	Causal bool
}

// Params returns the approximate parameter count (12·L·h² + vocab·h).
func (m LLM) Params() int64 {
	h := int64(m.Hidden)
	return 12*int64(m.Layers)*h*h + int64(m.Vocab)*h
}

// GPT175B is the GPT-3 scale reference model.
func GPT175B() LLM {
	return LLM{Name: "GPT-175B", Hidden: 12288, Layers: 96, Seq: 2048, Vocab: 51200, Causal: true}
}

// GPT350B is the ~350B parameter configuration of Fig 5.
func GPT350B() LLM {
	return LLM{Name: "GPT-350B", Hidden: 16384, Layers: 112, Seq: 2048, Vocab: 51200, Causal: true}
}

// System couples a model with hardware and a parallelism layout.
type System struct {
	LLM    LLM
	Par    parallel.Spec
	GPU    gpu.Spec
	Fabric parallel.Fabric
}

// LayerTimes returns one transformer layer's forward and backward times
// for one micro-batch on one GPU (TP shard), including TP collectives and
// the ZeRO communication pipeline term.
func (s System) LayerTimes(cost *gpu.CostModel) (fwd, bwd time.Duration) {
	h := int64(s.LLM.Hidden)
	t := int64(s.Par.TP)
	n := int64(s.Par.MicroBatch) * int64(s.LLM.Seq)
	seq := int64(s.LLM.Seq)
	const e = 2 // FP16

	hiddenBytes := units.Bytes(n * h * e)

	// Σ_l max(compute, memory) over the layer's operators.
	gemm := func(m, k, nn int64) (time.Duration, time.Duration) {
		f := cost.Matmul(m, k, nn, e)
		b := cost.Matmul(m, nn, k, e) + cost.Matmul(k, m, nn, e)
		return f, b
	}
	addBoth := func(f, b time.Duration) {
		fwd += f
		bwd += b
	}
	addBoth(gemm(n, h, 3*h/t)) // qkv
	attnFLOPs := units.FLOPs(4 * float64(n) * float64(seq) * float64(h/t))
	if s.LLM.Causal {
		attnFLOPs /= 2
	}
	attnIO := units.Bytes(4 * n * h / t * e)
	addBoth(cost.FusedAttention(attnFLOPs, attnIO), cost.FusedAttention(2.5*attnFLOPs, attnIO))
	addBoth(gemm(n, h/t, h))   // proj
	addBoth(gemm(n, h, 4*h/t)) // fc1
	addBoth(gemm(n, 4*h/t, h)) // fc2
	// LayerNorms, residuals, dropouts, gelu: bandwidth-bound traffic of
	// roughly 14 hidden-sized tensors forward, 16 backward. Sequence
	// parallelism shards these across TP ranks.
	lnBytes := hiddenBytes
	if s.Par.SeqParallel {
		lnBytes /= units.Bytes(t)
	}
	addBoth(cost.MemoryBound(14*lnBytes), cost.MemoryBound(16*lnBytes))
	// TP collectives: one all-reduce per direction per sublayer.
	ar := cost.AllReduceTime(hiddenBytes, s.Par.TP)
	fwd += 2 * ar
	bwd += 2 * ar

	// ZeRO-3 pipeline term: parameter all-gathers (forward and backward)
	// and the gradient reduce-scatter, assumed perfectly overlapped with
	// compute at layer granularity (§III-D): the layer takes
	// max(compute, communicate).
	if s.Par.ZeRO >= parallel.ZeRO3 && s.Par.DP > 1 {
		layerParams := units.Bytes(12 * h * h / t * e)
		zf := s.Fabric.AllGatherIB(layerParams, s.Par.DP)
		zb := s.Fabric.AllGatherIB(layerParams, s.Par.DP) + s.Fabric.ReduceScatterIB(layerParams, s.Par.DP)
		if zf > fwd {
			fwd = zf
		}
		if zb > bwd {
			bwd = zb
		}
	}
	return fwd, bwd
}

// ActivationBytesPerLayer returns one micro-batch's per-layer activation
// footprint on one GPU: the Korthikanti et al. formula s·b·h·(10 + 24/t)
// bytes for FP16 with fused (FlashAttention) kernels — or s·b·h·34/t with
// sequence parallelism, where the LayerNorm/dropout activations shard
// too. The paper's S_activations model builds on these and Table III
// validates them.
func (s System) ActivationBytesPerLayer() units.Bytes {
	sbh := float64(s.LLM.Seq) * float64(s.Par.MicroBatch) * float64(s.LLM.Hidden)
	if s.Par.SeqParallel {
		return units.Bytes(sbh * 34 / float64(s.Par.TP))
	}
	return units.Bytes(sbh * (10 + 24/float64(s.Par.TP)))
}

// ActivationsPerGPUPerStep returns S_activations: the activation volume
// one GPU produces in one step (all micro-batches, its pipeline stage's
// layers).
func (s System) ActivationsPerGPUPerStep() units.Bytes {
	layersPerStage := s.LLM.Layers / s.Par.PP
	return units.Bytes(int64(layersPerStage)*int64(s.Par.MicroBatches)) * s.ActivationBytesPerLayer()
}

// Projection is a Fig 5 row.
type Projection struct {
	System   System
	StepTime time.Duration
	// PerGPUThroughput is achieved model FLOP/s per GPU.
	PerGPUThroughput units.FLOPSRate
	// Activations is S_activations per GPU per step.
	Activations units.Bytes
	// WriteBandwidth is the required per-GPU PCIe write bandwidth
	// (activations over half the step time).
	WriteBandwidth units.Bandwidth
	// LifespanYears is the projected SSD lifespan.
	LifespanYears float64
	// MaxActivations is the maximal per-GPU activation working set when
	// only two layers stay resident (the Fig 5 diamonds).
	MaxActivations units.Bytes
}

// Project runs the §III-D model for a system.
func Project(s System, endurance ssd.EnduranceModel) Projection {
	if err := s.Par.Validate(); err != nil {
		panic(fmt.Sprintf("perfmodel: %v", err))
	}
	cost := gpu.DefaultCostModel(s.GPU)
	fwd, bwd := s.LayerTimes(cost)
	layersPerStage := s.LLM.Layers / s.Par.PP
	fPerMB := fwd * time.Duration(layersPerStage)
	bPerMB := bwd * time.Duration(layersPerStage)

	// Pipeline fill/drain via the ideal bubble fraction.
	m := float64(s.Par.MicroBatches)
	p := float64(s.Par.PP)
	compute := time.Duration(float64(fPerMB+bPerMB) * m)
	step := time.Duration(float64(compute) * (m + p - 1) / m)

	// Stage-to-stage communication (PP) and the DP gradient all-reduce
	// (non-ZeRO; ZeRO's collectives are folded into the layer pipeline).
	if s.Par.PP > 1 {
		hiddenBytes := units.Bytes(int64(s.Par.MicroBatch) * int64(s.LLM.Seq) * int64(s.LLM.Hidden) * 2 / int64(s.Par.TP))
		step += time.Duration(2*float64(s.Par.MicroBatches)) * s.Fabric.P2P(hiddenBytes)
	}
	shard := int64(s.Par.TP * s.Par.PP)
	shardBytes := units.Bytes(2 * s.LLM.Params() / shard)
	if s.Par.ZeRO == parallel.ZeROOff && s.Par.DP > 1 {
		step += s.Fabric.AllReduceIB(shardBytes, s.Par.DP)
	}
	// Optimizer update on the shard.
	step += cost.MemoryBound(3 * shardBytes)

	act := s.ActivationsPerGPUPerStep()
	wbw := ssd.RequiredWriteBandwidth(act, step)

	// The Fig 5 diamonds assume the larger micro-batches (8–32, nominally
	// 16) that offloading enables. For pipelined configs the per-step
	// activation volume is set by the rank's sequence count and does not
	// change with the micro-batch split; for single-micro-batch ZeRO runs
	// a larger micro-batch means proportionally more activations.
	maxAct := act
	if s.Par.MicroBatches == 1 && s.Par.MicroBatch < 16 {
		maxAct = act * units.Bytes(16/s.Par.MicroBatch)
	}

	// Model FLOPs per GPU per step: 6·P·tokens/GPUs plus attention.
	tokens := float64(s.Par.GlobalBatch()) * float64(s.LLM.Seq)
	attn := 2.0
	if s.LLM.Causal {
		attn = 1.0
	}
	flops := 6*float64(s.LLM.Params())*tokens +
		attn*3.5*float64(s.LLM.Layers)*2*float64(s.LLM.Seq)*float64(s.LLM.Hidden)*tokens
	perGPU := units.FLOPs(flops / float64(s.Par.GPUs()))

	return Projection{
		System:           s,
		StepTime:         step,
		PerGPUThroughput: units.Rate(perGPU, step),
		Activations:      act,
		WriteBandwidth:   wbw,
		LifespanYears:    endurance.LifespanYears(act, step),
		MaxActivations:   maxAct,
	}
}
