// Package parallel models the three LLM parallelism levels (§II-A) —
// tensor, pipeline and data parallelism — plus ZeRO's sharded data
// parallelism: device counts and collective communication costs over
// the inter-node fabric (TP's NVLink all-reduce is the GPU cost model's).
// The performance model (Fig 5, Fig 8b) and the upscaling projections
// are built on it.
package parallel

import "fmt"

// ZeROStage selects what ZeRO shards across data-parallel ranks (§II-A).
type ZeROStage int

// ZeRO stages.
const (
	// ZeROOff replicates optimizer state, gradients and parameters.
	ZeROOff ZeROStage = 0
	// ZeRO1 shards optimizer states.
	ZeRO1 ZeROStage = 1
	// ZeRO2 also shards gradients.
	ZeRO2 ZeROStage = 2
	// ZeRO3 also shards parameters (DeepSpeed stage-3, the paper's
	// "ZeRO3" configurations in Fig 5).
	ZeRO3 ZeROStage = 3
)

// Spec is a parallelism layout.
type Spec struct {
	TP   int // tensor-parallel degree (intra-node, NVLink)
	PP   int // pipeline-parallel degree
	DP   int // data-parallel degree
	ZeRO ZeROStage
	// MicroBatch is the per-micro-batch sequence count; MicroBatches is
	// how many run per step (gradient accumulation / pipeline fill).
	MicroBatch   int
	MicroBatches int
	// SeqParallel enables Megatron sequence parallelism: the LayerNorm and
	// dropout activations shard across TP ranks too, taking the per-layer
	// activation footprint from sbh(10 + 24/t) to sbh·34/t (Korthikanti
	// et al.). The Megatron-LM measurements the paper's Fig 5 builds on
	// use it.
	SeqParallel bool
}

// GPUs returns the total device count.
func (s Spec) GPUs() int { return s.TP * s.PP * s.DP }

// GlobalBatch returns sequences per step.
func (s Spec) GlobalBatch() int { return s.MicroBatch * s.MicroBatches * s.DP }

// Validate checks the layout.
func (s Spec) Validate() error {
	if s.TP <= 0 || s.PP <= 0 || s.DP <= 0 {
		return fmt.Errorf("parallel: degrees must be positive: %+v", s)
	}
	if s.MicroBatch <= 0 || s.MicroBatches <= 0 {
		return fmt.Errorf("parallel: micro-batch shape must be positive: %+v", s)
	}
	if s.ZeRO < ZeROOff || s.ZeRO > ZeRO3 {
		return fmt.Errorf("parallel: unknown ZeRO stage %d", s.ZeRO)
	}
	return nil
}

// String renders the layout.
func (s Spec) String() string {
	z := ""
	if s.ZeRO != ZeROOff {
		z = fmt.Sprintf(" zero%d", int(s.ZeRO))
	}
	return fmt.Sprintf("tp%d pp%d dp%d%s mb%d×%d", s.TP, s.PP, s.DP, z, s.MicroBatch, s.MicroBatches)
}
