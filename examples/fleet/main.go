// Fleet: simulate a small training cluster where co-located jobs share
// each node's NVMe array — eight pinned-budget jobs packed onto two
// nodes under FIFO and SJF — then measure one of those jobs through the
// public run API at an exclusive vs. quarter array share, showing the
// contention effect the fleet subsystem models: pinned-budget jobs
// dilate when their bandwidth share thins.
package main

import (
	"fmt"
	"log"

	"ssdtrain"
)

func main() {
	node := ssdtrain.DefaultFleetNode()
	cluster := ssdtrain.FleetClusterSpec{Nodes: 2, Node: node}

	// A memory-constrained job: the budget pins every activation to the
	// array, so a thinner bandwidth share stretches its step time.
	pinned := ssdtrain.Spec{
		Model: ssdtrain.PaperConfig(ssdtrain.BERT, 8192, 4, 8),
		Offload: ssdtrain.OffloadSpec{
			Strategy:        ssdtrain.StrategySSDTrain,
			Budget:          1 << 62,
			NoForwarding:    true,
			KeepLastModules: -1,
		},
	}
	var jobs []ssdtrain.FleetJob
	for i := 0; i < 8; i++ {
		jobs = append(jobs, ssdtrain.FleetJob{
			ID:    i,
			Name:  fmt.Sprintf("pinned-%d", i),
			Run:   pinned,
			GPUs:  1,
			Steps: 30,
		})
	}

	reports, err := ssdtrain.FleetPolicySweep(cluster, jobs,
		[]ssdtrain.FleetPolicy{ssdtrain.FleetFIFO, ssdtrain.FleetSJF}, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Println(r.Summary())
	}
	fmt.Println(ssdtrain.FleetCompareTable(reports))

	// The contended bandwidth injection is also part of the public run
	// API: the same job measured exclusively vs. at a quarter share.
	for _, share := range []float64{1, 0.25} {
		run := pinned
		run.Inject.SSDBandwidthShare = share
		run.Machine = ssdtrain.MachineSpec{GPU: node.GPU, SSD: node.SSD}
		res, err := ssdtrain.Train(run)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("share %.2f: step %v, stall %v\n",
			share, res.StepTime(), res.Measured.Stats.ComputeStall)
	}
}
