// Quickstart: train a GPT shard on the simulated 2×A100 + NVMe testbed
// with and without SSDTrain, and show the paper's headline effect — the
// activation memory peak drops by tens of percent while the step time is
// unchanged, because every byte of I/O hides behind compute.
package main

import (
	"fmt"
	"log"
	"time"

	"ssdtrain"
)

func main() {
	// The paper's GPT evaluation point with hidden 12288, 3 layers,
	// micro-batch 16 (Fig 6, middle column).
	cfg := ssdtrain.PaperConfig(ssdtrain.GPT, 12288, 3, 16)

	baseline, err := ssdtrain.Train(ssdtrain.Spec{
		Model:   cfg,
		Offload: ssdtrain.OffloadSpec{Strategy: ssdtrain.StrategyNoOffload},
	})
	if err != nil {
		log.Fatal(err)
	}

	offloaded, err := ssdtrain.Train(ssdtrain.Spec{
		Model:   cfg,
		Offload: ssdtrain.OffloadSpec{Strategy: ssdtrain.StrategySSDTrain},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model: %s\n\n", cfg)
	fmt.Printf("%-22s %14s %14s\n", "", "no offloading", "SSDTrain")
	fmt.Printf("%-22s %14v %14v\n", "step time",
		baseline.StepTime().Round(time.Millisecond), offloaded.StepTime().Round(time.Millisecond))
	fmt.Printf("%-22s %14s %14s\n", "activation peak",
		baseline.Measured.ActPeak, offloaded.Measured.ActPeak)
	fmt.Printf("%-22s %14s %14s\n", "model throughput",
		baseline.Throughput(), offloaded.Throughput())

	red := 1 - float64(offloaded.Measured.ActPeak)/float64(baseline.Measured.ActPeak)
	over := float64(offloaded.StepTime())/float64(baseline.StepTime()) - 1
	fmt.Printf("\nactivation peak reduced %.0f%%, step-time overhead %.2f%%\n", red*100, over*100)
	fmt.Printf("offloaded %s, forwarded %s in-flight, reloaded %s, stall %v\n",
		offloaded.Measured.IO.Offloaded, offloaded.Measured.IO.Forwarded,
		offloaded.Measured.IO.Reloaded, offloaded.Measured.Stats.ComputeStall.Round(time.Microsecond))
}
