package gpu

import (
	"time"

	"ssdtrain/internal/units"
)

// CostModel converts kernel descriptions into execution times using a
// roofline: a kernel takes max(compute time, memory time) plus the fixed
// launch latency. Tensor-core utilization follows a saturating curve in
// the GEMM row count, which is what makes small micro-batches inefficient
// — the effect the paper's Fig 8(a) decomposes.
type CostModel struct {
	Spec Spec
	// MatmulMaxEff is the peak fraction of tensor-core throughput large
	// GEMMs achieve (cuBLAS on A100 lands around 0.72–0.85).
	MatmulMaxEff float64
	// MatmulHalfRows is the GEMM row count at which utilization reaches
	// half of MatmulMaxEff; smaller inputs under-fill the device.
	MatmulHalfRows float64
	// AttnEff is the achieved fraction of peak for fused attention
	// kernels (FlashAttention-2 reports ~0.5–0.65 of peak on A100).
	AttnEff float64
	// MemEff is the achieved fraction of HBM bandwidth for elementwise,
	// normalization and reduction kernels.
	MemEff float64
}

// DefaultCostModel returns the calibration used throughout the
// reproduction (see EXPERIMENTS.md for the calibration rationale).
func DefaultCostModel(spec Spec) *CostModel {
	return &CostModel{
		Spec:           spec,
		MatmulMaxEff:   0.78,
		MatmulHalfRows: 384,
		AttnEff:        0.55,
		MemEff:         0.80,
	}
}

// matmulEff returns the utilization for a GEMM with m output rows.
func (c *CostModel) matmulEff(m int64) float64 {
	fm := float64(m)
	return c.MatmulMaxEff * fm / (fm + c.MatmulHalfRows)
}

// roofline combines compute and memory times with launch latency.
func (c *CostModel) roofline(flops units.FLOPs, eff float64, bytes units.Bytes) time.Duration {
	comp := units.FLOPSRate(float64(c.Spec.PeakFP16) * eff).TimeFor(flops)
	mem := units.Bandwidth(float64(c.Spec.HBMBandwidth) * c.MemEff).TimeFor(bytes)
	t := comp
	if mem > t {
		t = mem
	}
	return c.Spec.KernelLaunch + t
}

// Matmul returns the time of an (m×k)·(k×n) GEMM in the given dtype.
func (c *CostModel) Matmul(m, k, n int64, elemSize int) time.Duration {
	flops := units.FLOPs(2 * float64(m) * float64(k) * float64(n))
	bytes := units.Bytes(int64(elemSize) * (m*k + k*n + m*n))
	return c.roofline(flops, c.matmulEff(m), bytes)
}

// MatmulFLOPs returns the algorithmic work of the GEMM, used for
// model-throughput accounting.
func MatmulFLOPs(m, k, n int64) units.FLOPs {
	return units.FLOPs(2 * float64(m) * float64(k) * float64(n))
}

// BatchedMatmul returns the time of `count` independent (m×k)·(k×n) GEMMs
// launched as one batched kernel — the unfused attention score/context
// products. Utilization follows the per-GEMM row count.
func (c *CostModel) BatchedMatmul(count, m, k, n int64, elemSize int) time.Duration {
	flops := units.FLOPs(2 * float64(count) * float64(m) * float64(k) * float64(n))
	bytes := units.Bytes(int64(elemSize) * count * (m*k + k*n + m*n))
	return c.roofline(flops, c.matmulEff(m), bytes)
}

// FusedAttention returns the time of a FlashAttention-style fused kernel
// over batch b, heads a, sequence s, head dimension d (forward direction;
// backward costs ~2.5x and is modelled by the caller via FLOPs scaling).
func (c *CostModel) FusedAttention(flops units.FLOPs, ioBytes units.Bytes) time.Duration {
	return c.roofline(flops, c.AttnEff, ioBytes)
}

// MemoryBound returns the time of a bandwidth-bound kernel moving the
// given bytes (LayerNorm, residual add, dropout, softmax, optimizer math).
func (c *CostModel) MemoryBound(bytes units.Bytes) time.Duration {
	return c.roofline(0, 1, bytes)
}

// AllReduceTime models a ring all-reduce of n bytes across tpDegree GPUs
// over NVLink: each GPU moves 2(t-1)/t of the payload.
func (c *CostModel) AllReduceTime(n units.Bytes, tpDegree int) time.Duration {
	if tpDegree <= 1 {
		return 0
	}
	factor := 2 * float64(tpDegree-1) / float64(tpDegree)
	moved := units.Bytes(float64(n) * factor)
	// NVLink collectives achieve ~0.75 of the link rate in practice.
	bw := units.Bandwidth(float64(c.Spec.NVLinkBandwidth) * 0.75)
	return 5*time.Microsecond + bw.TimeFor(moved)
}

// AllGatherTime models a ring all-gather of n bytes (per-GPU shard) across
// tpDegree GPUs.
func (c *CostModel) AllGatherTime(n units.Bytes, tpDegree int) time.Duration {
	if tpDegree <= 1 {
		return 0
	}
	factor := float64(tpDegree-1) / float64(tpDegree)
	moved := units.Bytes(float64(n) * factor)
	bw := units.Bandwidth(float64(c.Spec.NVLinkBandwidth) * 0.75)
	return 5*time.Microsecond + bw.TimeFor(moved)
}
