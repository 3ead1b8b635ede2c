package fleet

import (
	"fmt"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/pool"
	"ssdtrain/internal/trace"
)

// Scenario is one named fleet simulation in a sweep.
type Scenario struct {
	Name   string
	Config Config
}

// Sweep runs scenarios concurrently through the deterministic worker
// pool, returning reports in scenario order. Scenarios that share a
// Profiler reuse each other's measurement runs; results are identical
// for any worker count.
func Sweep(scenarios []Scenario, workers int) ([]*Report, error) {
	return pool.ParallelMap(workers, scenarios, func(sc Scenario) (*Report, error) {
		r, err := Simulate(sc.Config)
		if err != nil {
			return nil, fmt.Errorf("fleet: scenario %q: %w", sc.Name, err)
		}
		return r, nil
	})
}

// PolicySweepConfig parameterizes a policy sweep.
type PolicySweepConfig struct {
	Cluster  ClusterSpec
	Jobs     []Job
	Policies []Policy
	// Workers bounds sweep and profiling concurrency (0 = GOMAXPROCS);
	// never affects results.
	Workers int
	// Faults applies one fault plan to every policy's simulation (see
	// Config.Faults), so the comparison shows how each scheduler absorbs
	// the same failure schedule.
	Faults faults.Plan
}

// PolicySweep simulates the same cluster and job mix under each policy,
// sharing one profile cache: every policy replays identical per-job
// measurements, so profiling cost is paid once.
func PolicySweep(cluster ClusterSpec, jobs []Job, policies []Policy, workers int) ([]*Report, error) {
	return PolicySweepWith(PolicySweepConfig{
		Cluster: cluster, Jobs: jobs, Policies: policies, Workers: workers,
	})
}

// PolicySweepWith is PolicySweep with the full option set.
func PolicySweepWith(cfg PolicySweepConfig) ([]*Report, error) {
	prof := NewProfiler(0)
	scenarios := make([]Scenario, len(cfg.Policies))
	for i, p := range cfg.Policies {
		scenarios[i] = Scenario{
			Name: string(p),
			Config: Config{
				Cluster:  cfg.Cluster,
				Jobs:     cfg.Jobs,
				Policy:   p,
				Workers:  cfg.Workers,
				Profiler: prof,
				Faults:   cfg.Faults,
			},
		}
	}
	return Sweep(scenarios, cfg.Workers)
}

// CompareTable renders a policy-by-policy comparison of sweep reports.
func CompareTable(reports []*Report) *trace.Table {
	faulted := false
	for _, r := range reports {
		if r.UsesFaults {
			faulted = true
			break
		}
	}
	cols := []string{"policy", "makespan", "mean wait", "max wait", "slowdown", "fleet writes", "min lifespan"}
	if faulted {
		cols = append(cols, "restarts")
	}
	t := trace.NewTable("policy comparison", cols...)
	for _, r := range reports {
		row := []any{
			string(r.Policy),
			r.Makespan.Round(time.Millisecond),
			r.MeanWait.Round(time.Millisecond),
			r.MaxWait.Round(time.Millisecond),
			fmt.Sprintf("%.2f×", r.MeanSlowdown),
			r.TotalWritten,
			fmt.Sprintf("%.1f y", r.MinLifespanYears),
		}
		if faulted {
			row = append(row, r.TotalRestarts)
		}
		t.AddRow(row...)
	}
	return t
}
