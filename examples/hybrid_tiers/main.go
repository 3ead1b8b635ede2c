// Tiered offload hierarchy: place activations across pinned host DRAM
// and the NVMe array at once (hybrid strategy), instead of choosing one
// target. This example sweeps the DRAM rung's capacity for a
// memory-constrained job whose array share is derated to a quarter (a
// busy fleet node): at zero capacity the hierarchy degenerates to the
// paper's ssd-only placement, at full working-set capacity to the
// cpu-offload strategy, and dram-first step time interpolates
// monotonically between them. It then shows the split placement's
// concurrency dividend: with prefetching overlapping both PCIe paths, a
// mid-capacity hybrid beats BOTH single-target endpoints.
package main

import (
	"fmt"
	"log"
	"time"

	"ssdtrain"
	"ssdtrain/internal/units"
)

func main() {
	model := ssdtrain.PaperConfig(ssdtrain.BERT, 4096, 3, 8)
	model.SeqLen = 512
	model.Vocab = 16384

	// Memory-constrained posture: pin the budget (offload everything) and
	// make every reload a synchronous demand load, so step time is a pure
	// function of where the bytes live.
	base := ssdtrain.Spec{
		Model: model,
		Offload: ssdtrain.OffloadSpec{
			Budget:          units.Bytes(1) << 62,
			NoForwarding:    true,
			PrefetchAhead:   -1,
			KeepLastModules: -1,
		},
		Inject: ssdtrain.InjectSpec{SSDBandwidthShare: 0.25},
	}

	fmt.Println("== dram-first: step time vs DRAM capacity (array at 1/4 share) ==")
	sweep, err := ssdtrain.DRAMSweep(base, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ssdtrain.DRAMSweepTable(sweep))
	fmt.Printf("endpoints: ssd-only %v → cpu-offload %v (working set %v)\n\n",
		sweep.SSDOnlyStep.Round(time.Millisecond),
		sweep.CPUStep.Round(time.Millisecond),
		sweep.PeakResident)

	fmt.Println("== overlapping both PCIe paths beats either target alone ==")
	overlapped := base
	overlapped.Offload.PrefetchAhead = 0 // default: prefetch everything
	both, err := ssdtrain.DRAMSweep(overlapped, []float64{0.75})
	if err != nil {
		log.Fatal(err)
	}
	mid := both.Rows[0]
	fmt.Printf("ssd-only   %v\n", both.SSDOnlyStep.Round(time.Millisecond))
	fmt.Printf("cpu-offload %v\n", both.CPUStep.Round(time.Millisecond))
	fmt.Printf("dram-first @ 75%% capacity: %v (dram %v + nvme %v in flight concurrently)\n\n",
		mid.StepTime.Round(time.Millisecond), mid.DRAMWritten, mid.NVMeWritten)

	fmt.Println("== split placement: route bytes by ratio across both paths ==")
	for _, ratio := range []float64{0.25, 0.5, 0.75} {
		res, err := ssdtrain.Train(ssdtrain.Spec{
			Model: model,
			Offload: ssdtrain.OffloadSpec{
				Strategy:     ssdtrain.StrategyHybridOffload,
				Placement:    ssdtrain.PlacementSplit,
				SplitRatio:   ratio,
				DRAMCapacity: units.Bytes(1) << 40,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		dram, nvme := res.Tiers[0], res.Tiers[1]
		fmt.Printf("ratio %.2f: step %v, dram %v, nvme %v\n",
			ratio, res.StepTime().Round(time.Microsecond), dram.Written, nvme.Written)
	}
}
