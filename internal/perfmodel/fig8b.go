package perfmodel

import (
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/parallel"
	"ssdtrain/internal/ssd"
)

// Fig8bCase is one bar of Fig 8(b): upscaling the 3-layer hidden-12K BERT
// workload with typical parallelism configurations.
type Fig8bCase struct {
	Label string
	Par   parallel.Spec
	LLM   LLM
}

// Fig8bCases returns the paper's five upscaling points:
// (PP1 TP4 L3), (PP1 TP8 L3), (PP2 TP8 L6), (PP4 TP8 L12), (PP8 TP8 L24).
func Fig8bCases() []Fig8bCase {
	base := LLM{Name: "BERT-12K", Hidden: 12288, Seq: 1024, Vocab: 30720, Causal: false}
	mk := func(pp, tp, layers int) Fig8bCase {
		llm := base
		llm.Layers = layers
		return Fig8bCase{
			Label: labelFor(pp, tp, layers),
			Par: parallel.Spec{
				TP: tp, PP: pp, DP: 1,
				MicroBatch: 16, MicroBatches: pp, // keep the pipeline full
				SeqParallel: true,
			},
			LLM: llm,
		}
	}
	return []Fig8bCase{
		mk(1, 4, 3),
		mk(1, 8, 3),
		mk(2, 8, 6),
		mk(4, 8, 12),
		mk(8, 8, 24),
	}
}

func labelFor(pp, tp, layers int) string {
	return "PP" + itoa(pp) + " TP" + itoa(tp) + " L" + itoa(layers)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Fig8bRow is one projected bar.
type Fig8bRow struct {
	Case Fig8bCase
	Proj Projection
}

// Fig8b projects per-GPU write bandwidth under upscaling; the paper's
// finding is that every upscaled configuration needs less write bandwidth
// per GPU than the original 2-GPU testbed (§IV-D "Impact of upscaling":
// LLM scaling is weak scaling, so I/O gets easier to hide).
func Fig8b() []Fig8bRow {
	model := ssd.DefaultEnduranceModel()
	spec := gpu.A100PCIe()
	fabric := parallel.DefaultA100Fabric()
	cases := Fig8bCases()
	rows := make([]Fig8bRow, len(cases))
	for i, c := range cases {
		sys := System{LLM: c.LLM, Par: c.Par, GPU: spec, Fabric: fabric}
		rows[i] = Fig8bRow{Case: c, Proj: Project(sys, model)}
	}
	return rows
}

// Fig8bReference projects the original testbed configuration (TP2, one
// node) under the same model — the orange dashed line of Fig 8(b).
func Fig8bReference() Projection {
	model := ssd.DefaultEnduranceModel()
	llm := LLM{Name: "BERT-12K", Hidden: 12288, Layers: 3, Seq: 1024, Vocab: 30720}
	par := parallel.Spec{TP: 2, PP: 1, DP: 1, MicroBatch: 16, MicroBatches: 1, SeqParallel: true}
	sys := System{LLM: llm, Par: par, GPU: gpu.A100PCIe(), Fabric: parallel.DefaultA100Fabric()}
	return Project(sys, model)
}
