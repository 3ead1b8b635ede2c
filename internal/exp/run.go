// Package exp is the experiment harness: it wires the substrates together
// (GPU runtime, PCIe link, SSD array, GDS registry, tensor cache) and runs
// training steps under the placement strategies the paper compares,
// producing the rows of every evaluation table and figure. The cmd/
// tools, the examples and the benchmarks all call into this package so
// the numbers they print come from one code path.
//
// Measurements are two-phase: Compile turns a RunConfig into a *Plan
// holding all the pure config-shape-dependent work (graph template,
// activation vectors, budget plan), and Plan.Execute runs one simulation
// under it. Run composes the two behind a shared plan cache, so naive
// per-point sweeps get the memoization for free.
package exp

import (
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/core"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/models"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/ssd"
	"ssdtrain/internal/trace"
	"ssdtrain/internal/units"
)

// Strategy is an activation placement strategy — the three points of the
// paper's recompute-offload-keep design space (§IV-C) plus the CPU
// offloader variant. Each offloading strategy is a preset of one tier
// stack: a row of the presets table naming the rungs it builds.
type Strategy string

// Strategies.
const (
	// NoOffload keeps all activations in GPU memory (the baseline).
	NoOffload Strategy = "no-offload"
	// SSDTrain offloads activations to the NVMe array.
	SSDTrain Strategy = "ssdtrain"
	// Recompute applies layerwise full activation checkpointing.
	Recompute Strategy = "recompute"
	// CPUOffload offloads activations to pinned host memory.
	CPUOffload Strategy = "cpu-offload"
	// HybridOffload offloads activations across a tiered DRAM+NVMe
	// hierarchy under a placement (§III-A generalized: both offload
	// targets at once instead of either).
	HybridOffload Strategy = "hybrid"
	// OptimOffload extends the hybrid activation hierarchy with offloaded
	// optimizer states and gradients (the ZeRO-Offload / GreedySnake
	// regime): FP32 master state lives on DRAM/NVMe, per-step gradient
	// and parameter shuttles ride the same PCIe paths, and the update
	// executes on a host-side engine. The Schedule knob selects whether
	// the update pipeline drains before the step ends (sync) or overlaps
	// fwd(t+1) (GreedySnake's core trick).
	OptimOffload Strategy = "optim-offload"
)

// Optimizer schedule values for RunConfig.Schedule.
const (
	// ScheduleSync holds each step open until the offloaded optimizer
	// pipeline fully drains (the ZeRO-Offload baseline).
	ScheduleSync = "sync"
	// ScheduleOverlap ends the step at the compute horizon and lets the
	// pipeline drain into the next step's forward, which stalls per
	// weight only if its updated value has not arrived (GreedySnake).
	ScheduleOverlap = "overlap"
)

// Placement selects how the HybridOffload hierarchy routes offloaded
// bytes; each placement is a DRAM share of the one routing rule
// (core.TieredOffloader): ssd-only 0, dram-first 1, split its ratio.
type Placement string

// Placement policies.
const (
	// PlacementSSDOnly routes everything to the NVMe rung (the paper's
	// placement, expressed on the tiered stack).
	PlacementSSDOnly Placement = "ssd-only"
	// PlacementDRAMFirst fills the pinned DRAM pool first and spills
	// overflow to NVMe (the 10Cache/ZeRO-Offload posture).
	PlacementDRAMFirst Placement = "dram-first"
	// PlacementSplit routes a fixed fraction of offloaded bytes to DRAM
	// and the rest to NVMe, keeping both PCIe paths busy.
	PlacementSplit Placement = "split"
)

// SSDSetup describes the per-GPU offload array.
type SSDSetup struct {
	Spec   ssd.Spec
	Count  int
	Stripe units.Bytes
}

// PaperArray is the testbed's per-GPU array (Table II): the measured GPU
// owned a RAID0 of 4× Intel Optane P5800X with a 512 KiB stripe.
func PaperArray() SSDSetup {
	return SSDSetup{Spec: ssd.IntelP5800X16TB(), Count: 4, Stripe: 512 * units.KiB}
}

// RunConfig is a Spec flattened: one training measurement's knobs as a
// single comparable value. Callers build a Spec and take the RunConfig
// that Spec.RunConfig returns; Normalize canonicalizes it. It is the key the plan cache, the serve result
// cache, the cluster router, /v1/cachefill and the fleet profiler cache
// on. It stays exported because Compile, Plan.Execute, Session.Execute,
// Run, TraceOf and RunResult.Config take or return it, and those are the
// entry points the perfbench harness calls; they move to Spec when
// perfbench does.
type RunConfig struct {
	Model    models.Config
	Strategy Strategy
	GPU      gpu.Spec
	SSD      SSDSetup
	// Steps measured after Warmup steps (the cache learns its keep-last
	// set during warmup).
	Steps  int
	Warmup int
	// MicroBatches per step (gradient accumulation).
	MicroBatches int
	// Budget overrides the planned offload budget (0 = plan automatically
	// via the Fig 3 workflow).
	Budget units.Bytes
	// PrefetchAhead tunes the cache's prefetch depth in modules: 0 =
	// prefetch all (default), negative = disabled (ablation).
	PrefetchAhead int
	// KeepLastModules keeps the last K modules' activations resident
	// (default 1).
	KeepLastModules int
	// HostCost is the cache CPU overhead charged per hook call.
	HostCost time.Duration
	// DisableGDS forces the bounce-buffer path (ablation).
	DisableGDS bool
	// NoForwarding/NoDedup disable the corresponding cache optimizations
	// (ablations).
	NoForwarding bool
	NoDedup      bool
	// Materialize+Verify run byte-backed offloads with checksum checks.
	Materialize bool
	Verify      bool
	// Placement selects the HybridOffload tier routing (default
	// dram-first). Only meaningful for the hybrid strategy.
	Placement Placement
	// DRAMCapacity bounds the pinned host-memory pool. For HybridOffload
	// it sizes the DRAM rung (0 = no DRAM rung, making the hierarchy
	// degenerate NVMe-only); for CPUOffload it bounds the single pinned
	// pool (0 = profiling mode, grow freely).
	DRAMCapacity units.Bytes
	// SplitRatio is the DRAM share of offloaded bytes under
	// PlacementSplit, in [0, 1].
	SplitRatio float64
	// OptimKind selects the offloaded optimizer's state layout for the
	// OptimOffload strategy: "adam" (FP32 master + momentum + variance,
	// 6× the FP16 parameter bytes) or "sgd" (FP32 master + momentum, 4×).
	// Defaults to "adam"; must be empty for every other strategy.
	OptimKind string
	// Schedule selects the OptimOffload step schedule: "sync" (default)
	// drains the update pipeline before the step ends, "overlap" lets it
	// drain into fwd(t+1). Must be empty for every other strategy.
	Schedule string
	// SSDBandwidthShare scales the array's sequential bandwidths to model
	// co-tenants contending for a shared NVMe array: a fleet simulation that
	// places k equal offloading jobs on one node hands each a 1/k share.
	// 0 (unset) and 1 both mean exclusive access; NaN, values outside
	// [0, 1] and nonzero values below MinSSDBandwidthShare are rejected by
	// Run.
	SSDBandwidthShare float64
	// SteadyState controls the analytic steady-state fast path: once two
	// consecutive measured steps fold to identical signatures the
	// simulation has entered an exact cycle, so the remaining steps are
	// extrapolated — step metrics shifted in time, tier/device byte
	// counters (the §III-D wear ledger's inputs) and runtime counters
	// advanced by per-cycle deltas, the last step's memory events
	// repeated (Allocator.Repeat) — with a RunResult byte-identical to
	// full simulation. "" and "on" enable it
	// (the default); "off" forces full simulation. Runs fall back to full
	// simulation on their own when Trace is set (recorded spans cannot be
	// synthesized) or a fault spec is armed (a trigger could fire inside
	// the extrapolated region, and the wear ledger must see the real write
	// stream). RunResult.SteadyState reports what happened.
	SteadyState string
	// Trace enables the flight recorder for the run: every simulated
	// resource (compute stream, PCIe directions, NVMe devices, tier
	// queues, allocator) records typed spans, returned on
	// RunResult.Trace. Tracing observes completion times the simulation
	// computes anyway, so a traced run's metrics are byte-identical to
	// the untraced run's.
	Trace bool
	// Faults schedules deterministic fault injection against the NVMe
	// array: device death (at a time or a wear threshold), transient
	// bandwidth degradation, RAID-rebuild bandwidth steal. The zero Spec
	// injects nothing and keeps the run byte-identical to a fault-free
	// one. Only meaningful for strategies with an NVMe tier (SSDTrain,
	// HybridOffload); a whole-array failure mid-run surfaces as a
	// *core.DeviceFailedError unless a surviving tier absorbs the spill.
	Faults faults.Spec
}

// withDefaults fills unset fields with the paper's setup.
func (c RunConfig) withDefaults() RunConfig {
	if c.GPU.Name == "" {
		c.GPU = gpu.A100PCIe()
	}
	if c.SSD.Count == 0 {
		c.SSD = PaperArray()
	}
	if c.Steps == 0 {
		c.Steps = 3
	}
	if c.Warmup == 0 {
		c.Warmup = 2
	}
	if c.MicroBatches == 0 {
		c.MicroBatches = 1
	}
	if c.KeepLastModules == 0 {
		c.KeepLastModules = 1
	}
	if c.KeepLastModules < 0 {
		// Ablation: keep nothing. -1 is the canonical form so defaulting
		// is idempotent — Sweep dedups on the defaulted config and Run
		// defaults again, and a 0 here would turn into the keep-1 default
		// on the second pass.
		c.KeepLastModules = -1
	}
	t := presets[c.Strategy]
	if t.stacked() && c.Placement == "" {
		c.Placement = PlacementDRAMFirst
	}
	if t.optim {
		if c.OptimKind == "" {
			c.OptimKind = string(core.OptimAdam)
		}
		if c.Schedule == "" {
			c.Schedule = ScheduleSync
		}
	}
	if c.SteadyState == "on" {
		// "" and "on" are one mode; canonicalize so Sweep's dedup map and
		// the serve result cache treat them as one config.
		c.SteadyState = ""
	}
	return c
}

// StepMetrics is one measured step.
type StepMetrics struct {
	Stats trace.StepStats
	IO    core.StepIO
	// ActPeak/TotalPeak are the memory peaks within this step's window.
	ActPeak    units.Bytes
	TotalPeak  units.Bytes
	Start      time.Duration
	End        time.Duration
	HostTime   time.Duration
	UpdateTime time.Duration
}

// RunResult is the outcome of a measurement run.
type RunResult struct {
	Config  RunConfig
	PerStep []StepMetrics
	// Measured is the last measured step (steady state).
	Measured StepMetrics
	// Mem is the whole-run memory report: peaks only, no timeline (each
	// step's peaks are on its PerStep row).
	Mem gpu.MemReport
	// PlannedBudget is the offload budget the Fig 3 workflow chose.
	PlannedBudget units.Bytes
	// Graph facts for estimates and tables.
	WeightBytes   units.Bytes
	EligibleBytes units.Bytes
	// SSDPeak is the offload hierarchy's resident high-water mark (all
	// tiers combined).
	SSDPeak units.Bytes
	// Tiers reports per-tier traffic for the offloading strategies (one
	// entry for the single-target strategies, DRAM+NVMe for hybrid; the
	// OptimOffload strategy appends its optimizer rungs after the
	// activation rungs).
	Tiers []TierUsage
	// Optim reports the offloaded-optimizer pipeline's outcome (nil for
	// every strategy but OptimOffload).
	Optim *OptimUsage
	// Counters is a snapshot of the runtime counter set at the end of the
	// run (a snapshot because execution arenas are recycled: the live set
	// belongs to the arena and is reset by its next Execute).
	Counters trace.Counters
	// Trace is the flight-recorder snapshot of a traced run (nil unless
	// RunConfig.Trace was set). Like Counters it is a snapshot: the
	// recorder itself belongs to the arena.
	Trace *spans.Trace
	// SteadyState reports the steady-state fast path's outcome: how many
	// measured steps were simulated, how many were synthesized by
	// extrapolation, and the fallback reason when the run was fully
	// simulated.
	SteadyState SteadyStateInfo
}

// SteadyStateInfo is the per-run visibility of the steady-state fast
// path, carried on RunResult and serialized into serve /v1/plan bodies.
type SteadyStateInfo struct {
	// SimulatedSteps is the number of measured steps actually simulated
	// (warmup steps are always simulated and not counted here).
	SimulatedSteps int `json:"simulated_steps"`
	// ExtrapolatedSteps is the number of measured steps synthesized
	// analytically instead of simulated.
	ExtrapolatedSteps int `json:"extrapolated_steps"`
	// Fallback is why the run was fully simulated ("trace", "faults",
	// "off", "no-convergence"), or "" when the detector converged.
	Fallback string `json:"fallback,omitempty"`
}

// OptimUsage summarizes the offloaded-optimizer pipeline after a run:
// what the placement decided and what the per-step machinery cost.
type OptimUsage struct {
	// Kind/Schedule echo the run's effective optimizer knobs.
	Kind     string `json:"kind"`
	Schedule string `json:"schedule"`
	// StateBytes is the resident FP32 optimizer state across both rungs.
	StateBytes units.Bytes `json:"state_bytes"`
	// DRAMResident/NVMeResident are the rung-resident volumes (states plus
	// the per-weight gradient and parameter shuttle blocks).
	DRAMResident units.Bytes `json:"dram_resident"`
	NVMeResident units.Bytes `json:"nvme_resident"`
	// ShuttleWrite/ShuttleRead are the per-step shuttle volumes the rungs'
	// paths carry (gradients + state write-back down, state + updated
	// parameters up).
	ShuttleWrite units.Bytes `json:"shuttle_write_per_step"`
	ShuttleRead  units.Bytes `json:"shuttle_read_per_step"`
	// UpdateBusy is the host update engine's cumulative busy time over the
	// whole run (warmup + measured).
	UpdateBusy time.Duration `json:"update_busy"`
}

// TierUsage summarizes one rung of the offload hierarchy after a run.
type TierUsage struct {
	Name     string
	Kind     core.TierKind
	Written  units.Bytes
	Read     units.Bytes
	Peak     units.Bytes
	Capacity units.Bytes
}

// StepTime returns the steady-state step time.
func (r *RunResult) StepTime() time.Duration { return r.Measured.Stats.StepTime }

// Throughput returns the steady-state model throughput.
func (r *RunResult) Throughput() units.FLOPSRate { return r.Measured.Stats.ModelThroughput() }

// blockSavedBytes returns the per-block activation bytes the pack hook
// sees (excluding weights) and the largest tensor among them.
func blockSavedBytes(g *autograd.Graph) (saved []units.Bytes, largest units.Bytes) {
	var prevOut units.Bytes
	saved = make([]units.Bytes, len(g.Blocks))
	outs := make([]units.Bytes, len(g.Blocks))
	var extras []units.Bytes
	for bi, b := range g.Blocks {
		extras = extras[:0]
		for _, src := range b.ExtraIn {
			extras = append(extras, outs[src])
		}
		var l units.Bytes
		saved[bi], l = b.SavedBytes(prevOut, extras)
		largest = max(largest, l)
		prevOut = b.Ops[len(b.Ops)-1].OutBytes()
		outs[bi] = prevOut
	}
	return saved, largest
}

// eligibleBytes sums the per-block activation bytes the pack hook would
// offload (blockSavedBytes: small tensors' stats are counted, they are
// noise; weights never reach the budget), and returns the final block's
// volume (the bytes the planner keeps resident). A graph with no blocks
// has nothing to offload and nothing to keep: (0, 0).
func eligibleBytes(saved []units.Bytes) (total, last units.Bytes) {
	if len(saved) == 0 {
		return 0, 0
	}
	for _, sb := range saved {
		total += sb
	}
	return total, saved[len(saved)-1]
}

// blockBwdTimes returns per-block backward kernel time.
func blockBwdTimes(g *autograd.Graph) []time.Duration {
	out := make([]time.Duration, len(g.Blocks))
	for bi, b := range g.Blocks {
		for i := range b.Ops {
			out[bi] += b.Ops[i].BwdTime
		}
	}
	return out
}

// graphTimes sums kernel times per direction.
func graphTimes(g *autograd.Graph) (fwd, bwd time.Duration) {
	for _, b := range g.Blocks {
		for i := range b.Ops {
			fwd += b.Ops[i].FwdTime
			bwd += b.Ops[i].BwdTime
		}
	}
	return fwd, bwd
}

// Run executes one measurement: Compile (hitting the shared plan cache)
// followed by Execute. Sweeps that vary only the cheap knobs listed on
// Plan automatically share one compiled plan; callers that want explicit
// control use Compile + Execute.
func Run(cfg RunConfig) (*RunResult, error) {
	plan, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return plan.Execute(cfg)
}
