// Example optim_overlap demonstrates the optimizer-offload strategy and
// the grouped Spec configuration form. It offloads Adam's FP32 states
// and the gradients to the DRAM/NVMe hierarchy (à la ZeRO-Offload) and
// compares the two step schedules: the classic post-backward barrier
// ("sync") against GreedySnake's trick of draining the optimizer
// pipeline into the next step's forward pass ("overlap"). The crossover
// is the point of the figure — overlap wins while the working set is
// DRAM-resident (the update work hides under fwd(t+1)), and loses once
// the states spill to NVMe, where step t's parameter loads contend with
// step t+1's gradient stores on the host link.
package main

import (
	"fmt"
	"log"
	"time"

	"ssdtrain"
)

func main() {
	model := ssdtrain.PaperConfig(ssdtrain.BERT, 2048, 24, 8)

	// Each concern in its own block, the optimizer family selected by
	// Optimizer.Offload rather than a strategy string.
	spec := ssdtrain.Spec{
		Model: model,
		Offload: ssdtrain.OffloadSpec{
			DRAMCapacity: 1 << 30,
		},
		Optimizer: ssdtrain.OptimizerSpec{
			Kind:     "adam",
			Offload:  true,
			Schedule: ssdtrain.ScheduleSync,
		},
		Run: ssdtrain.RunSpec{MicroBatches: 2},
	}
	sync, err := ssdtrain.Train(spec)
	if err != nil {
		log.Fatal(err)
	}
	spec.Optimizer.Schedule = ssdtrain.ScheduleOverlap
	overlap, err := ssdtrain.Train(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model: %s\n", model)
	fmt.Printf("optimizer working set: %v (%v in DRAM, %v on NVMe)\n\n",
		sync.Optim.StateBytes, sync.Optim.DRAMResident, sync.Optim.NVMeResident)
	fmt.Printf("%-28s %12s %12s\n", "", "sync", "overlap")
	fmt.Printf("%-28s %12v %12v\n", "step time",
		sync.StepTime().Round(time.Millisecond), overlap.StepTime().Round(time.Millisecond))
	fmt.Printf("%-28s %12v %12v\n", "update engine busy",
		sync.Optim.UpdateBusy.Round(time.Millisecond), overlap.Optim.UpdateBusy.Round(time.Millisecond))
	gain := float64(sync.StepTime())/float64(overlap.StepTime()) - 1
	fmt.Printf("\noverlap gain at this grant: %+.1f%%\n\n", gain*100)

	// The full figure: residency fractions of the working set under both
	// schedules, against the activation-offload baseline.
	sweep, err := ssdtrain.OptimSweep(ssdtrain.Spec{
		Model: model,
		Run:   ssdtrain.RunSpec{MicroBatches: 2},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ssdtrain.OptimSweepTable(sweep))
}
