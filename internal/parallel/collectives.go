package parallel

import (
	"time"

	"ssdtrain/internal/units"
)

// Fabric describes the inter-node communication substrate available to
// a GPU. Intra-node TP all-reduces over NVLink are the GPU cost model's
// (gpu.CostModel.AllReduceTime), the formula the op graph uses too.
type Fabric struct {
	// Interconnect is per-GPU inter-node bandwidth (IB/RoCE; DP and PP).
	Interconnect units.Bandwidth
	// InterconnectLatency is the per-operation latency.
	InterconnectLatency time.Duration
	// Efficiency derates achievable collective bandwidth (NCCL typically
	// reaches 70–85% of line rate on large payloads).
	Efficiency float64
}

// DefaultA100Fabric is an A100 cluster node's 8×200 Gb/s HDR InfiniBand
// (≈25 GB/s per GPU on 8-GPU nodes).
func DefaultA100Fabric() Fabric {
	return Fabric{
		Interconnect:        25 * units.GBps,
		InterconnectLatency: 15 * time.Microsecond,
		Efficiency:          0.75,
	}
}

func (f Fabric) eff(bw units.Bandwidth) units.Bandwidth {
	e := f.Efficiency
	if e <= 0 || e > 1 {
		e = 0.75
	}
	return units.Bandwidth(float64(bw) * e)
}

// ringMoved returns the per-rank traffic factor of a ring collective over
// n ranks: all-reduce moves 2(n-1)/n of the payload, all-gather and
// reduce-scatter move (n-1)/n.
func ringMoved(payload units.Bytes, n int, allReduce bool) units.Bytes {
	if n <= 1 {
		return 0
	}
	factor := float64(n-1) / float64(n)
	if allReduce {
		factor *= 2
	}
	return units.Bytes(factor * float64(payload))
}

// AllReduceIB is a DP gradient all-reduce across nodes.
func (f Fabric) AllReduceIB(payload units.Bytes, ranks int) time.Duration {
	if ranks <= 1 {
		return 0
	}
	return f.InterconnectLatency + f.eff(f.Interconnect).TimeFor(ringMoved(payload, ranks, true))
}

// AllGatherIB is a ZeRO-3 parameter all-gather across data-parallel ranks.
func (f Fabric) AllGatherIB(payload units.Bytes, ranks int) time.Duration {
	if ranks <= 1 {
		return 0
	}
	return f.InterconnectLatency + f.eff(f.Interconnect).TimeFor(ringMoved(payload, ranks, false))
}

// ReduceScatterIB is a ZeRO gradient reduce-scatter across ranks.
func (f Fabric) ReduceScatterIB(payload units.Bytes, ranks int) time.Duration {
	return f.AllGatherIB(payload, ranks)
}

// P2P is a pipeline-parallel stage-to-stage activation transfer.
func (f Fabric) P2P(payload units.Bytes) time.Duration {
	return f.InterconnectLatency + f.eff(f.Interconnect).TimeFor(payload)
}
