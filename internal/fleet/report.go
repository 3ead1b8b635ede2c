package fleet

import (
	"fmt"
	"strings"
	"time"

	"ssdtrain/internal/trace"
	"ssdtrain/internal/units"
)

// NodeReport summarizes one node over the simulation.
type NodeReport struct {
	Node int
	// Placements counts jobs that ran on the node.
	Placements int
	// GPUUtil is GPU-seconds busy over GPUs × makespan.
	GPUUtil float64
	// Written is total host writes to the node's shared array.
	Written units.Bytes
	// WriteUtil is the time-averaged fraction of the array's write
	// bandwidth consumed by offload traffic.
	WriteUtil float64
	// MeanWriteBW is Written over the makespan.
	MeanWriteBW units.Bandwidth
	// WearFraction is the share of the array's endurance budget consumed.
	WearFraction float64
	// LifespanYears projects the array's life if this window's write
	// pressure continued (100 = effectively idle).
	LifespanYears float64
	// DRAMPeak is the high-water mark of pinned host memory granted to
	// DRAM-offloading tenants (0 when the node ran none).
	DRAMPeak units.Bytes
	// Deaths/Drains count fault events that fired against the node;
	// RebuildTime is the total RAID-rebuild window during which the
	// rebuild steal thinned tenant bandwidth; Killed counts job evictions
	// (each one a checkpoint restart somewhere else). All zero without a
	// fault plan.
	Deaths      int
	Drains      int
	RebuildTime time.Duration
	Killed      int
}

// JobReport summarizes one job's fate.
type JobReport struct {
	ID      int
	Name    string
	Node    int
	GPUs    int
	Submit  time.Duration
	Wait    time.Duration
	Runtime time.Duration
	// Slowdown is achieved runtime over the exclusive estimate; >1 means
	// the job lost throughput to array contention.
	Slowdown float64
	// Written is the job's total host writes (all its GPUs).
	Written units.Bytes
	// Restarts counts checkpoint restarts after fault kills (0 without a
	// fault plan).
	Restarts int
}

// Report is the outcome of one fleet simulation. Given a fixed Config
// (and seed-fixed job mix), its rendering is byte-identical across runs
// and worker-pool sizes.
type Report struct {
	Policy      Policy
	Nodes       int
	GPUsPerNode int
	JobCount    int
	// Makespan is the last job's finish time.
	Makespan time.Duration
	// MeanWait/MaxWait measure queueing delay (start − submit).
	MeanWait time.Duration
	MaxWait  time.Duration
	// MeanSlowdown averages per-job contention slowdowns.
	MeanSlowdown float64
	// TotalWritten is fleet-wide host writes to the shared arrays.
	TotalWritten units.Bytes
	// MinLifespanYears/MeanLifespanYears project drive life under the
	// observed multi-tenant write pressure (§III-D extended fleet-wide).
	MinLifespanYears  float64
	MeanLifespanYears float64
	NodeReports       []NodeReport
	JobReports        []JobReport
	// UsesDRAM marks that at least one tenant consumed the node DRAM
	// budget; the tables add their DRAM columns only then, keeping
	// NVMe-only reports byte-identical to the pre-hierarchy renderings.
	UsesDRAM bool
	// DRAMBudget echoes the per-node pinned-pool budget when used.
	DRAMBudget units.Bytes
	// UsesFaults marks that the simulation ran under a fault plan; the
	// tables and summary add their failure columns only then, mirroring
	// UsesDRAM so fault-free reports stay byte-identical to the committed
	// goldens.
	UsesFaults bool
	// TotalDeaths/TotalDrains/TotalRestarts aggregate the fault ledgers
	// fleet-wide.
	TotalDeaths   int
	TotalDrains   int
	TotalRestarts int
}

// report assembles the Report after the event loop drains.
func (s *simState) report() *Report {
	r := &Report{
		Policy:      s.cfg.Policy,
		Nodes:       len(s.nodes),
		GPUsPerNode: s.cfg.Cluster.Node.GPUs,
		JobCount:    len(s.jobs),
		UsesFaults:  !s.cfg.Faults.Empty(),
	}
	makespan := 0.0
	for _, j := range s.jobs {
		if j.finish > makespan {
			makespan = j.finish
		}
	}
	r.Makespan = seconds(makespan)

	var waitSum, slowSum float64
	for _, j := range s.jobs {
		wait := j.start - j.Submit.Seconds()
		if wait < 0 {
			wait = 0
		}
		runtime := j.finish - j.start
		est, err := estimate(s, j)
		if err != nil {
			// Every job's exclusive profile was measured during
			// validation; a miss here is a bug.
			panic(err)
		}
		slow := 1.0
		if est > 0 {
			slow = runtime / est
		}
		waitSum += wait
		slowSum += slow
		if w := seconds(wait); w > r.MaxWait {
			r.MaxWait = w
		}
		r.JobReports = append(r.JobReports, JobReport{
			ID:       j.ID,
			Name:     j.Name,
			Node:     j.node,
			GPUs:     j.GPUs,
			Submit:   j.Submit,
			Wait:     seconds(wait),
			Runtime:  seconds(runtime),
			Slowdown: slow,
			Written:  units.Bytes(j.written),
			Restarts: j.restarts,
		})
		r.TotalRestarts += j.restarts
	}
	if n := len(s.jobs); n > 0 {
		r.MeanWait = seconds(waitSum / float64(n))
		r.MeanSlowdown = slowSum / float64(n)
	}

	lifeSum := 0.0
	r.MinLifespanYears = -1
	for i, node := range s.nodes {
		node.wear.Extend(r.Makespan)
		years := node.wear.ProjectedYears()
		nr := NodeReport{
			Node:          i,
			Placements:    node.placements,
			Written:       node.wear.Written(),
			MeanWriteBW:   node.wear.MeanWriteBandwidth(),
			WearFraction:  node.wear.WearFraction(),
			LifespanYears: years,
			DRAMPeak:      node.dramPeak,
		}
		if node.dramPeak > 0 {
			r.UsesDRAM = true
			r.DRAMBudget = node.spec.DRAM
		}
		if nf := node.faults; nf != nil {
			nr.Deaths = nf.deaths
			nr.Drains = nf.drains
			nr.RebuildTime = seconds(nf.rebuildTime)
			nr.Killed = nf.killed
			r.TotalDeaths += nf.deaths
			r.TotalDrains += nf.drains
		}
		if makespan > 0 {
			nr.GPUUtil = node.busyGPUSecs / (float64(node.spec.GPUs) * makespan)
			nr.WriteUtil = node.writeSecs / makespan
		}
		r.NodeReports = append(r.NodeReports, nr)
		r.TotalWritten += nr.Written
		lifeSum += years
		if r.MinLifespanYears < 0 || years < r.MinLifespanYears {
			r.MinLifespanYears = years
		}
	}
	if n := len(s.nodes); n > 0 {
		r.MeanLifespanYears = lifeSum / float64(n)
	}
	return r
}

// seconds converts float seconds to a rounded Duration; microsecond
// rounding swallows float noise far below any step time.
func seconds(s float64) time.Duration {
	return time.Duration(s*1e6+0.5) * time.Microsecond
}

// NodeTable renders per-node SSD utilization and endurance, plus the
// pinned-DRAM high-water mark when any tenant offloaded to host memory.
func (r *Report) NodeTable() *trace.Table {
	cols := []string{"node", "jobs", "gpu util", "written", "write util", "mean BW", "wear", "lifespan"}
	if r.UsesDRAM {
		cols = append(cols, "dram peak")
	}
	if r.UsesFaults {
		cols = append(cols, "deaths", "rebuild", "killed")
	}
	t := trace.NewTable(
		fmt.Sprintf("per-node shared-SSD utilization and endurance (%s)", r.Policy),
		cols...)
	for _, n := range r.NodeReports {
		row := []any{
			fmt.Sprintf("node%02d", n.Node),
			n.Placements,
			pctCell(n.GPUUtil),
			n.Written,
			pctCell(n.WriteUtil),
			n.MeanWriteBW,
			fmt.Sprintf("%.4f%%", n.WearFraction*100),
			fmt.Sprintf("%.1f y", n.LifespanYears),
		}
		if r.UsesDRAM {
			row = append(row, n.DRAMPeak)
		}
		if r.UsesFaults {
			row = append(row, n.Deaths, n.RebuildTime.Round(time.Second), n.Killed)
		}
		t.AddRow(row...)
	}
	return t
}

// JobTable renders every job's fate.
func (r *Report) JobTable() *trace.Table {
	cols := []string{"job", "name", "node", "gpus", "submit", "wait", "runtime", "slowdown", "written"}
	if r.UsesFaults {
		cols = append(cols, "restarts")
	}
	t := trace.NewTable(fmt.Sprintf("per-job schedule (%s)", r.Policy), cols...)
	for _, j := range r.JobReports {
		row := []any{
			j.ID,
			j.Name,
			fmt.Sprintf("node%02d", j.Node),
			j.GPUs,
			j.Submit.Round(time.Millisecond),
			j.Wait.Round(time.Millisecond),
			j.Runtime.Round(time.Millisecond),
			fmt.Sprintf("%.2f×", j.Slowdown),
			j.Written,
		}
		if r.UsesFaults {
			row = append(row, j.Restarts)
		}
		t.AddRow(row...)
	}
	return t
}

// Summary renders the headline metrics as text.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %-9s  %d jobs on %d nodes × %d GPUs\n",
		r.Policy, r.JobCount, r.Nodes, r.GPUsPerNode)
	fmt.Fprintf(&b, "  makespan        %v\n", r.Makespan.Round(time.Millisecond))
	fmt.Fprintf(&b, "  wait mean/max   %v / %v\n",
		r.MeanWait.Round(time.Millisecond), r.MaxWait.Round(time.Millisecond))
	fmt.Fprintf(&b, "  mean slowdown   %.2f×\n", r.MeanSlowdown)
	fmt.Fprintf(&b, "  fleet writes    %v\n", r.TotalWritten)
	fmt.Fprintf(&b, "  drive lifespan  min %.1f y, mean %.1f y\n",
		r.MinLifespanYears, r.MeanLifespanYears)
	if r.UsesDRAM {
		peak := units.Bytes(0)
		for _, n := range r.NodeReports {
			if n.DRAMPeak > peak {
				peak = n.DRAMPeak
			}
		}
		fmt.Fprintf(&b, "  dram peak/node  %v of %v budget\n", peak, r.DRAMBudget)
	}
	if r.UsesFaults {
		fmt.Fprintf(&b, "  faults          %d device deaths, %d drains, %d job restarts\n",
			r.TotalDeaths, r.TotalDrains, r.TotalRestarts)
	}
	return b.String()
}

// String renders the summary plus the node table.
func (r *Report) String() string {
	return r.Summary() + r.NodeTable().String()
}

// RenderReports renders a sweep's reports in full — per-report summary,
// node table and job table, then the policy comparison. The
// byte-identity golden pins exactly this rendering, and its -update flag
// regenerates it through the same function, so the two cannot drift.
func RenderReports(reports []*Report) string {
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.Summary())
		b.WriteString(r.NodeTable().String())
		b.WriteString(r.JobTable().String())
	}
	b.WriteString(CompareTable(reports).String())
	return b.String()
}

func pctCell(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
