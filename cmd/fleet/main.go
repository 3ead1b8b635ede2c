// Command fleet simulates a multi-job training cluster sharing per-node
// NVMe arrays: a seeded heterogeneous job mix is scheduled under one or
// more policies, co-located jobs contend for array bandwidth, and the
// report projects per-drive endurance under the multi-tenant write
// pressure. Output is byte-identical for a given seed and flags,
// regardless of -workers.
//
// Usage:
//
//	fleet -nodes 16 -jobs 64 -seed 1 -policies fifo,sjf,backfill
//	      [-faults "death@30s:node0:dev1,drain@2m:node1:5m,ckpt=25"]
//
// -faults injects a deterministic failure schedule: device deaths
// (timed or wear-triggered) steal rebuild bandwidth from the survivors,
// degradation windows thin a node's array, and drains evict tenants who
// restart from their last checkpoint elsewhere. The same plan yields a
// byte-identical report for any -workers.
//
// Self-check mode replays a fixed faulted mix at several worker counts
// and exits non-zero unless the report hash is identical across them,
// faults visibly fired (deaths, restarts), and the healthy baseline
// still differs:
//
//	fleet -selfcheck
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"ssdtrain"
	"ssdtrain/internal/exp"
	"ssdtrain/internal/units"
)

func main() {
	nodes := flag.Int("nodes", 16, "node count")
	gpus := flag.Int("gpus", 0, "GPUs per node (0 = default node's 4)")
	dramGiB := flag.Float64("dram-gib", -1, "per-node pinned host-memory budget in GiB (-1 = default node's 512, 0 = unmodeled)")
	hybrid := flag.Float64("hybrid", 0, "fraction of SSDTrain jobs converted to dram-first hybrid tenants")
	optim := flag.Float64("optim", 0, "fraction of SSDTrain jobs converted to optimizer-offload tenants (half sync, half overlap)")
	jobs := flag.Int("jobs", 64, "job count")
	seed := flag.Int64("seed", 1, "job-mix seed")
	policies := flag.String("policies", "fifo,sjf,backfill", "comma-separated scheduling policies")
	workers := flag.Int("workers", 0, "profiling/sweep worker pool size (0 = GOMAXPROCS); never affects results")
	minSteps := flag.Int("steps-min", 40, "minimum training steps per job")
	maxSteps := flag.Int("steps-max", 400, "maximum training steps per job")
	spread := flag.Duration("spread", 0, "arrival window (0 = full backlog at t=0)")
	faultsFlag := flag.String("faults", "", "fault schedule, e.g. \"death@30s:node0:dev1,degrade@1m:node1:0.5:30s,drain@2m:node2:5m,ckpt=25\" (empty = none)")
	showJobs := flag.Bool("v", false, "also print the per-job schedule tables")
	selfcheck := flag.Bool("selfcheck", false, "replay a fixed faulted mix across worker counts, verify determinism and fault visibility, exit")
	flag.Parse()

	if *selfcheck {
		os.Exit(runSelfcheck())
	}
	if *jobs <= 0 {
		log.Fatalf("fleet: -jobs must be positive, got %d", *jobs)
	}
	plan, err := ssdtrain.ParseFaultPlan(*faultsFlag)
	if err != nil {
		log.Fatal(err)
	}
	var pols []ssdtrain.FleetPolicy
	for _, name := range strings.Split(*policies, ",") {
		p, err := ssdtrain.ParseFleetPolicy(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		pols = append(pols, p)
	}

	node := ssdtrain.DefaultFleetNode()
	if *gpus > 0 {
		node.GPUs = *gpus
	}
	if *dramGiB >= 0 {
		node.DRAM = units.Bytes(*dramGiB * float64(units.GiB))
	}
	cluster := ssdtrain.FleetClusterSpec{Nodes: *nodes, Node: node}
	mix := ssdtrain.FleetJobMix(ssdtrain.FleetMixConfig{
		Jobs:         *jobs,
		Seed:         *seed,
		MinSteps:     *minSteps,
		MaxSteps:     *maxSteps,
		SubmitSpread: *spread,
		MaxGPUs:      node.GPUs,
		HybridFrac:   *hybrid,
		OptimFrac:    *optim,
		FaultPlan:    plan,
	})

	fmt.Printf("fleet: %d jobs (seed %d) on %d nodes × %d GPUs, shared array %d× %s per node\n",
		*jobs, *seed, *nodes, node.GPUs, node.SSD.Count, node.SSD.Spec.Name)
	if !plan.Empty() {
		fmt.Printf("fleet: fault plan %s\n", plan)
	}
	fmt.Println()

	start := time.Now()
	reports, err := ssdtrain.FleetPolicySweepWith(ssdtrain.FleetPolicySweepConfig{
		Cluster: cluster, Jobs: mix, Policies: pols,
		Workers: *workers, Faults: plan,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Println(r.Summary())
		fmt.Println(r.NodeTable())
		if *showJobs {
			fmt.Println(r.JobTable())
		}
	}
	fmt.Println(ssdtrain.FleetCompareTable(reports))
	// Wall-clock goes to the log (stderr), keeping stdout reproducible.
	log.Printf("fleet: sweep finished in %v", time.Since(start).Round(time.Millisecond))
}

// selfcheckPlan is the fixed fault schedule the CI smoke replays: a
// member death (rebuild steal), a degradation window and a temporary
// drain, early enough that a short mix is still running when they fire.
const selfcheckPlan = "death@10s:node0:dev1,degrade@15s:node1:0.5:30s,drain@25s:node2:2m,ckpt=25,penalty=10s"

// runSelfcheck is the CI smoke for the fault subsystem: one seeded
// faulted mix, replayed at several worker counts, must hash identically;
// the faults must visibly fire (deaths, restarts in the report); and the
// healthy baseline of the same mix must still differ. Any panic in the
// stack crashes the process, which CI reads as failure.
func runSelfcheck() int {
	node := ssdtrain.DefaultFleetNode()
	cluster := ssdtrain.FleetClusterSpec{Nodes: 4, Node: node}
	plan, err := ssdtrain.ParseFaultPlan(selfcheckPlan)
	if err != nil {
		log.Printf("selfcheck: parse plan: %v", err)
		return 1
	}
	mixCfg := ssdtrain.FleetMixConfig{
		Jobs: 14, Seed: 7, MinSteps: 20, MaxSteps: 120,
		MaxGPUs: node.GPUs, FaultPlan: plan,
	}
	mix := ssdtrain.FleetJobMix(mixCfg)
	render := func(reports []*ssdtrain.FleetReport) string {
		var b strings.Builder
		for _, r := range reports {
			b.WriteString(r.Summary())
			b.WriteString(r.NodeTable().String())
			b.WriteString(r.JobTable().String())
		}
		b.WriteString(ssdtrain.FleetCompareTable(reports).String())
		return b.String()
	}
	run := func(workers int, fp ssdtrain.FaultPlan) (string, []*ssdtrain.FleetReport, error) {
		reports, err := ssdtrain.FleetPolicySweepWith(ssdtrain.FleetPolicySweepConfig{
			Cluster: cluster, Jobs: mix,
			Policies: []ssdtrain.FleetPolicy{ssdtrain.FleetFIFO, ssdtrain.FleetSJF, ssdtrain.FleetBackfill},
			Workers:  workers, Faults: fp,
		})
		if err != nil {
			return "", nil, err
		}
		return render(reports), reports, nil
	}

	failed := false
	fail := func(format string, args ...any) {
		log.Printf("selfcheck FAIL: "+format, args...)
		failed = true
	}

	start := time.Now()
	var want string
	var faulted []*ssdtrain.FleetReport
	for _, workers := range []int{1, 2, 4} {
		got, reports, err := run(workers, plan)
		if err != nil {
			log.Printf("selfcheck: faulted sweep (workers=%d): %v", workers, err)
			return 1
		}
		hash := sha256.Sum256([]byte(got))
		log.Printf("selfcheck: workers=%d report hash %x", workers, hash[:8])
		if want == "" {
			want, faulted = got, reports
			continue
		}
		if got != want {
			fail("faulted report at workers=%d differs from workers=1", workers)
		}
	}
	deaths, drains, restarts := 0, 0, 0
	for _, r := range faulted {
		deaths += r.TotalDeaths
		drains += r.TotalDrains
		restarts += r.TotalRestarts
	}
	if deaths == 0 || drains == 0 {
		fail("fault plan never fired: %d deaths, %d drains", deaths, drains)
	}
	if restarts == 0 {
		fail("drain killed no jobs (0 restarts)")
	}
	healthy, _, err := run(0, ssdtrain.FaultPlan{})
	if err != nil {
		log.Printf("selfcheck: healthy baseline: %v", err)
		return 1
	}
	if healthy == want {
		fail("faulted report is identical to the healthy baseline")
	}
	ss := exp.GlobalSteadyStats()
	if ss.Hits == 0 {
		fail("steady-state fast path never fired across the profiled job shapes (hits = 0)")
	}
	if failed {
		return 1
	}
	log.Printf("selfcheck: OK (%d deaths, %d drains, %d restarts; identical hash at workers=1/2/4; healthy baseline differs) in %v",
		deaths, drains, restarts, time.Since(start).Round(time.Millisecond))
	return 0
}
