// Command ssdtrain runs one training measurement on the simulated testbed
// and prints step time, memory peaks and offload statistics — one Fig 6
// column plus its Table III row.
//
// Usage:
//
//	ssdtrain -model bert -hidden 12288 -layers 3 -batch 16 -strategy ssdtrain
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ssdtrain"
	"ssdtrain/internal/units"
)

func main() {
	model := flag.String("model", "bert", "architecture: gpt | bert | t5")
	hidden := flag.Int("hidden", 12288, "hidden dimension")
	layers := flag.Int("layers", 3, "transformer layer count")
	batch := flag.Int("batch", 16, "micro-batch size in sequences")
	strategy := flag.String("strategy", "ssdtrain", "placement: ssdtrain | no-offload | recompute | cpu-offload | hybrid | optim-offload")
	placement := flag.String("placement", "", "hybrid tier policy: ssd-only | dram-first | split (default dram-first)")
	optimKind := flag.String("optim-kind", "", "optimizer under -strategy optim-offload: adam | sgd (default adam)")
	schedule := flag.String("schedule", "", "step schedule under -strategy optim-offload: sync | overlap (default sync)")
	dramGiB := flag.Float64("dram-gib", 0, "pinned host-memory pool in GiB (hybrid DRAM rung / cpu-offload bound; 0 = none/unbounded)")
	splitRatio := flag.Float64("split-ratio", 0.5, "DRAM share of offloaded bytes under -placement split")
	steps := flag.Int("steps", 3, "measured steps after warmup")
	verify := flag.Bool("verify", false, "materialize payloads and checksum-verify reloads (slow)")
	flag.Parse()

	cfg := ssdtrain.PaperConfig(ssdtrain.Arch(*model), *hidden, *layers, *batch)
	run := ssdtrain.Spec{
		Model: cfg,
		Offload: ssdtrain.OffloadSpec{
			Strategy:     ssdtrain.Strategy(*strategy),
			Placement:    ssdtrain.Placement(*placement),
			DRAMCapacity: units.Bytes(*dramGiB * float64(units.GiB)),
			Materialize:  *verify,
			Verify:       *verify,
		},
		Optimizer: ssdtrain.OptimizerSpec{
			Kind:     *optimKind,
			Offload:  ssdtrain.Strategy(*strategy) == ssdtrain.StrategyOptimOffload,
			Schedule: *schedule,
		},
		Run: ssdtrain.RunSpec{Steps: *steps},
	}
	if run.Offload.Placement == ssdtrain.PlacementSplit {
		run.Offload.SplitRatio = *splitRatio
	}
	res, err := ssdtrain.Train(run)
	if err != nil {
		log.Fatalf("ssdtrain: %v", err)
	}

	m := res.Measured
	fmt.Printf("config               %s, strategy %s\n", cfg, *strategy)
	fmt.Printf("step time            %v\n", res.StepTime().Round(time.Microsecond))
	fmt.Printf("model throughput     %s per GPU\n", res.Throughput())
	fmt.Printf("activation peak      %s\n", m.ActPeak)
	fmt.Printf("total memory peak    %s (GPU capacity %s)\n", m.TotalPeak, res.Config.GPU.Memory)
	fmt.Printf("compute stall        %v\n", m.Stats.ComputeStall.Round(time.Microsecond))
	fmt.Printf("weights              %s (+ equal gradients)\n", res.WeightBytes)
	if m.IO.Offloaded > 0 || m.IO.Kept > 0 {
		fmt.Printf("offloaded            %s of %s eligible (budget %s)\n", m.IO.Offloaded, res.EligibleBytes, res.PlannedBudget)
		fmt.Printf("kept in GPU memory   %s\n", m.IO.Kept)
		fmt.Printf("forwarded in flight  %s\n", m.IO.Forwarded)
		fmt.Printf("reloaded from target %s\n", m.IO.Reloaded)
		fmt.Printf("dedup hits           %d of %d packs\n", m.IO.DedupHits, m.IO.Packs)
		fmt.Printf("PCIe write bandwidth %s (required: offloaded ÷ half step)\n",
			units.BandwidthOf(m.IO.Offloaded, res.StepTime()/2))
		fmt.Printf("SSD peak residency   %s\n", res.SSDPeak)
	}
	if len(res.Tiers) > 1 {
		fmt.Printf("tier hierarchy       (%s placement)\n", res.Config.Placement)
		for _, tier := range res.Tiers {
			cap := "unbounded"
			if tier.Capacity > 0 {
				cap = tier.Capacity.String()
			}
			fmt.Printf("  %-4s %-9s  written %-10s read %-10s peak %-10s cap %s\n",
				tier.Kind, tier.Name, tier.Written, tier.Read, tier.Peak, cap)
		}
	}
	if o := res.Optim; o != nil {
		fmt.Printf("optimizer offload    %s states %s (%s schedule)\n", o.Kind, o.StateBytes, o.Schedule)
		fmt.Printf("  resident           %s DRAM, %s NVMe\n", o.DRAMResident, o.NVMeResident)
		fmt.Printf("  shuttle per step   %s stored, %s loaded\n", o.ShuttleWrite, o.ShuttleRead)
		fmt.Printf("  update engine busy %v\n", o.UpdateBusy.Round(time.Microsecond))
	}
}
