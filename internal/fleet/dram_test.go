package fleet

import (
	"strings"
	"testing"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// hybridJob builds a dram-first tenant with the given per-GPU pool
// request.
func hybridJob(id, gpus, steps int, req units.Bytes) Job {
	return Job{
		ID:   id,
		Name: "hyb",
		Run: exp.Spec{
			Model: models.PaperConfig(models.BERT, 2048, 3, 8),
			Offload: exp.OffloadSpec{
				Strategy:     exp.HybridOffload,
				Placement:    exp.PlacementDRAMFirst,
				DRAMCapacity: req,
			},
		},
		GPUs:  gpus,
		Steps: steps,
	}
}

// flattened returns j with its Run flattened, as Simulate leaves it.
func flattened(t *testing.T, j Job) Job {
	t.Helper()
	run, err := j.Run.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	j.run = run
	return j
}

func TestDRAMGrantSharesNodeBudget(t *testing.T) {
	node := DefaultNodeSpec()
	j := flattened(t, hybridJob(0, 1, 10, 1<<50)) // asks for more than any slice
	if got, want := dramGrant(node, j, 1), node.DRAM; got != want {
		t.Errorf("solo grant = %v, want the full budget %v", got, want)
	}
	if got, want := dramGrant(node, j, 4), node.DRAM/4; got != want {
		t.Errorf("4-way grant = %v, want %v", got, want)
	}
	// A modest request is never inflated to the slice.
	small := flattened(t, hybridJob(1, 1, 10, 8*units.GiB))
	if got := dramGrant(node, small, 2); got != 8*units.GiB {
		t.Errorf("capped grant = %v", got)
	}
	// Nodes without a DRAM model pass requests through untouched.
	node.DRAM = 0
	if got := dramGrant(node, j, 4); got != 1<<50 {
		t.Errorf("unmodeled grant = %v", got)
	}
}

// TestFleetDRAMContention runs hybrid tenants against a node whose DRAM
// budget cannot cover everyone's request: the report gains its DRAM
// columns, the reservation peak respects the budget, and spill traffic
// reaches the shared array only once grants shrink below working sets.
func TestFleetDRAMContention(t *testing.T) {
	node := DefaultNodeSpec()
	node.DRAM = 2 * units.GiB // far below the tenants' requests
	jobs := []Job{
		hybridJob(0, 2, 30, 4*units.GiB),
		hybridJob(1, 2, 30, 4*units.GiB),
	}
	rep, err := Simulate(Config{
		Cluster: ClusterSpec{Nodes: 1, Node: node},
		Jobs:    jobs,
		Policy:  FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsesDRAM {
		t.Fatal("report does not mark DRAM usage")
	}
	if rep.DRAMBudget != node.DRAM {
		t.Errorf("budget echoed as %v", rep.DRAMBudget)
	}
	for _, n := range rep.NodeReports {
		if n.DRAMPeak == 0 || n.DRAMPeak > node.DRAM {
			t.Errorf("node %d DRAM peak %v outside (0, %v]", n.Node, n.DRAMPeak, node.DRAM)
		}
	}
	if !strings.Contains(rep.NodeTable().String(), "dram peak") {
		t.Error("node table missing the dram column")
	}
	if !strings.Contains(rep.Summary(), "dram peak/node") {
		t.Error("summary missing the dram line")
	}
}

// TestFleetDRAMRelievesArray: granting hybrid tenants enough DRAM moves
// their traffic off the shared array relative to the same tenants forced
// to spill. The tenants pin their budgets (memory-constrained posture) —
// planner-driven tenants at a thin array share shrink their budget below
// the grant instead, writing nothing to the array either way.
func TestFleetDRAMRelievesArray(t *testing.T) {
	run := func(dram units.Bytes) *Report {
		node := DefaultNodeSpec()
		node.DRAM = dram
		jobs := []Job{hybridJob(0, 2, 30, 1<<40), hybridJob(1, 2, 30, 1<<40)}
		for i := range jobs {
			jobs[i].Run.Offload.Budget = units.Bytes(1) << 62
		}
		rep, err := Simulate(Config{
			Cluster: ClusterSpec{Nodes: 1, Node: node},
			Jobs:    jobs,
			Policy:  FIFO,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	roomy := run(512 * units.GiB)
	tiny := run(512 * units.MiB)
	if roomy.TotalWritten >= tiny.TotalWritten {
		t.Errorf("array writes with roomy DRAM (%v) not below tiny DRAM (%v)",
			roomy.TotalWritten, tiny.TotalWritten)
	}
	if roomy.TotalWritten != 0 {
		t.Errorf("fully-granted tenants still wrote %v to the array", roomy.TotalWritten)
	}
}

// TestCPUOffloadOverflowIsInfeasibleNotFatal: a pinned-budget cpu-offload
// tenant whose thinned DRAM grant cannot hold its working set has no
// spill rung and overflows its pool — the scheduler must treat that as
// "cannot co-locate" (like a GPU-memory miss), not abort the simulation.
// (Planner-driven tenants never hit this: the planner clamps a budget so
// the stack's last rung holds it even when a micro-batch passes it by the
// largest saved tensor, which fits it to the grant.)
func TestCPUOffloadOverflowIsInfeasibleNotFatal(t *testing.T) {
	node := DefaultNodeSpec()
	// The working set a tenant insists on offloading: the unbounded
	// planner budget, pinned.
	probe := hybridJob(0, 2, 20, 0)
	probe.Run.Offload.Strategy = exp.CPUOffload
	probe.Run.Offload.Placement = ""
	probe.Run.Offload.DRAMCapacity = 0
	p := NewProfiler(0)
	solo, err := p.Measure(flattened(t, probe).run, node, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if solo.PlannedBudget == 0 {
		t.Fatal("cpu-offload job plans no offload; test needs a working set")
	}
	cpuJob := func(id int) Job {
		j := probe
		j.ID = id
		j.Run.Offload.Budget = solo.PlannedBudget
		return j
	}
	// Node budget: a lone 2-GPU tenant's grant (DRAM/2 = 1.5×budget)
	// holds the pinned set, but two co-located tenants' grants (DRAM/4 =
	// 0.75×budget) would overflow.
	node.DRAM = 3 * solo.PlannedBudget
	rep, err := Simulate(Config{
		Cluster: ClusterSpec{Nodes: 1, Node: node},
		Jobs:    []Job{cpuJob(0), cpuJob(1)},
		Policy:  FIFO,
	})
	if err != nil {
		t.Fatalf("overflow-infeasible placement aborted the fleet: %v", err)
	}
	// The second tenant must have waited for the first instead of
	// co-locating into an overflowing grant.
	if rep.JobReports[1].Wait == 0 {
		t.Errorf("tenants co-located despite DRAM infeasibility: %+v", rep.JobReports)
	}
}

// TestHybridMixReproducible: a HybridFrac mix is deterministic per seed,
// converts only SSDTrain jobs, and leaves the base mix untouched when 0.
func TestHybridMixReproducible(t *testing.T) {
	base := DefaultJobMix(MixConfig{Jobs: 24, Seed: 7})
	again := DefaultJobMix(MixConfig{Jobs: 24, Seed: 7, HybridFrac: 0})
	for i := range base {
		if base[i].Run != again[i].Run || base[i].Name != again[i].Name {
			t.Fatalf("HybridFrac 0 perturbed job %d", i)
		}
	}
	hyb := DefaultJobMix(MixConfig{Jobs: 24, Seed: 7, HybridFrac: 0.5})
	hyb2 := DefaultJobMix(MixConfig{Jobs: 24, Seed: 7, HybridFrac: 0.5})
	converted := 0
	for i := range hyb {
		if hyb[i].Run != hyb2[i].Run {
			t.Fatalf("hybrid mix not reproducible at job %d", i)
		}
		if hyb[i].Run.Offload.Strategy == exp.HybridOffload {
			converted++
			if base[i].Run.Offload.Strategy != exp.SSDTrain {
				t.Errorf("job %d converted from %s", i, base[i].Run.Offload.Strategy)
			}
			if hyb[i].Run.Offload.DRAMCapacity == 0 || hyb[i].Run.Offload.Placement != exp.PlacementDRAMFirst {
				t.Errorf("job %d missing hybrid knobs: %+v", i, hyb[i].Run)
			}
		} else if hyb[i].Run != base[i].Run {
			t.Errorf("unconverted job %d perturbed", i)
		}
	}
	if converted == 0 {
		t.Error("HybridFrac 0.5 converted nothing")
	}
}
