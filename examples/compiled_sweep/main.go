// Example compiled_sweep demonstrates the compiled-plan API: compile a
// measurement once, bind a reusable Session to the plan, then execute a
// budget sweep and a bandwidth-share sweep against the shared arena,
// with the steady-state fast path cutting the per-point simulation
// cost. The session resets in place between points instead of
// rebuilding the simulated machine, and its results are byte-identical
// to one-shot runs — the equivalent calls (ssdtrain.Train /
// ssdtrain.TrainSweep) hit the same plan cache and pool sessions
// internally.
package main

import (
	"fmt"
	"log"
	"reflect"
	"time"

	"ssdtrain"
	"ssdtrain/internal/units"
)

func main() {
	model := ssdtrain.PaperConfig(ssdtrain.BERT, 8192, 4, 16)
	base := ssdtrain.RunConfig{
		Model:    model,
		Strategy: ssdtrain.StrategySSDTrain,
		Steps:    12, // the fast path synthesizes the steps after convergence
	}

	start := time.Now()
	plan, err := ssdtrain.Compile(base)
	if err != nil {
		log.Fatal(err)
	}

	// One reusable arena for every point of the sweep: Execute resets it
	// in place (queue servers, weights, offload queues, cache pools)
	// instead of rebuilding runtime + graph + offload stack per point.
	sess, err := ssdtrain.NewSession(plan)
	if err != nil {
		log.Fatal(err)
	}

	// Reference run: let the Fig 3 planner pick the budget.
	ref, err := sess.Execute(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s  planned budget %v  step %v  activation peak %v\n\n",
		model, ref.PlannedBudget, ref.StepTime(), ref.Measured.ActPeak)

	// Budget sweep: every point reuses the compiled graph, vectors and
	// the session's recycled arena.
	fmt.Println("offload budget sweep (fraction of planned):")
	for _, f := range []float64{0.25, 0.5, 0.75, 1.0} {
		cfg := base
		cfg.Budget = units.Bytes(f * float64(ref.PlannedBudget))
		res, err := sess.Execute(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4.0f%%  offloaded %8v  step %v  peak %v\n",
			f*100, res.Measured.IO.Offloaded, res.StepTime(), res.Measured.ActPeak)
	}

	// The recycled arena is an optimization, never a behavior change:
	// a single-use Execute of the same config must agree byte-for-byte.
	fresh, err := plan.Execute(base)
	if err != nil {
		log.Fatal(err)
	}
	again, err := sess.Execute(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsession reuse byte-identical to fresh Execute: %v\n", reflect.DeepEqual(fresh, again))

	// Share sweep via the deduplicated batch API: 8 requested points,
	// 4 distinct — duplicates share one simulation.
	var cfgs []ssdtrain.RunConfig
	shares := []float64{0, 0.5, 0.25, 0.125}
	for i := 0; i < 8; i++ {
		cfg := base
		cfg.SSDBandwidthShare = shares[i%len(shares)]
		cfgs = append(cfgs, cfg)
	}
	results, err := ssdtrain.TrainSweep(0, cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nNVMe bandwidth-share sweep (fleet contention):")
	for i, s := range shares {
		fmt.Printf("  share %5.3f  budget %8v  step %v\n",
			orOne(s), results[i].PlannedBudget, results[i].StepTime())
	}

	// Wall-clock goes to stderr so stdout stays byte-reproducible.
	log.Printf("compiled sweep finished in %v", time.Since(start).Round(time.Millisecond))
}

func orOne(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}
