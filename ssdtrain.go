// Package ssdtrain is the public API of the SSDTrain reproduction: an
// adaptive activation-offloading framework for LLM training (Wu et al.,
// DAC 2025), rebuilt in Go on a deterministic simulation of the GPU
// training stack.
//
// The package wires together the internal substrates — a virtual-time
// GPU/PCIe/NVMe simulator built on FIFO queue servers, a PyTorch-like
// module/hook runtime, a transformer model zoo, and the SSDTrain tensor
// cache — behind a small surface:
//
//	res, err := ssdtrain.Train(ssdtrain.Spec{
//	    Model:   ssdtrain.PaperConfig(ssdtrain.BERT, 12288, 3, 16),
//	    Offload: ssdtrain.OffloadSpec{Strategy: ssdtrain.StrategySSDTrain},
//	})
//	fmt.Println(res.StepTime(), res.Measured.ActPeak)
//
// A Spec is the one configuration form: Train, TrainSweep, Compile and
// the sweep runners all take it, grouped by concern (model, machine,
// offload, optimizer, run, inject).
//
// Every figure and table of the paper's evaluation has a runner here
// (Fig1, Fig5, Fig6, Fig7, Fig8a, Fig8b, Table1, Table3); see
// EXPERIMENTS.md for the paper-vs-reproduction record.
package ssdtrain

import (
	"ssdtrain/internal/core"
	"ssdtrain/internal/exp"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/fleet"
	"ssdtrain/internal/models"
	"ssdtrain/internal/perfmodel"
	"ssdtrain/internal/trace"
)

// Model architectures (§II-A's three transformer classes).
const (
	GPT  = models.GPT
	BERT = models.BERT
	T5   = models.T5
)

// Activation placement strategies (§IV-C's recompute-offload-keep space).
const (
	// StrategyNoOffload keeps all activations in GPU memory.
	StrategyNoOffload = exp.NoOffload
	// StrategySSDTrain offloads activations to the NVMe array.
	StrategySSDTrain = exp.SSDTrain
	// StrategyRecompute uses layerwise full activation checkpointing.
	StrategyRecompute = exp.Recompute
	// StrategyCPUOffload offloads activations to pinned host memory.
	StrategyCPUOffload = exp.CPUOffload
	// StrategyHybridOffload offloads across a tiered DRAM+NVMe hierarchy
	// under a placement policy (OffloadSpec.Placement, DRAMCapacity,
	// SplitRatio).
	StrategyHybridOffload = exp.HybridOffload
	// StrategyOptimOffload offloads optimizer states and gradients to the
	// DRAM/NVMe hierarchy (à la ZeRO-Offload), with the step schedule
	// selectable via Spec.Optimizer.Schedule.
	StrategyOptimOffload = exp.OptimOffload
)

// Optimizer step schedules for StrategyOptimOffload.
const (
	// ScheduleSync is the classic barrier: the step waits for every
	// offloaded update to drain before fwd(t+1) starts.
	ScheduleSync = exp.ScheduleSync
	// ScheduleOverlap drains the optimizer pipeline into the next step's
	// forward pass (GreedySnake), stalling fwd(t+1) only on the weights
	// whose updates have not landed yet.
	ScheduleOverlap = exp.ScheduleOverlap
)

// Tier placement policies for StrategyHybridOffload.
const (
	// PlacementSSDOnly routes everything to the NVMe rung (the paper's
	// placement expressed on the tiered stack).
	PlacementSSDOnly = exp.PlacementSSDOnly
	// PlacementDRAMFirst fills the pinned DRAM pool first and spills
	// overflow to NVMe.
	PlacementDRAMFirst = exp.PlacementDRAMFirst
	// PlacementSplit routes a fixed fraction of offloaded bytes to DRAM
	// and the rest to NVMe, keeping both PCIe paths busy.
	PlacementSplit = exp.PlacementSplit
)

// Re-exported configuration and result types.
type (
	// ModelConfig describes a transformer training configuration.
	ModelConfig = models.Config
	// Arch selects the model family.
	Arch = models.Arch
	// Strategy is an activation placement strategy.
	Strategy = exp.Strategy
	// RunResult is a measurement outcome.
	RunResult = exp.RunResult
	// StepMetrics is one measured step.
	StepMetrics = exp.StepMetrics
	// SSDSetup describes the per-GPU offload array.
	SSDSetup = exp.SSDSetup
	// Plan is a compiled measurement: the memoized config-shape-dependent
	// work of a run (graph template, activation vectors, budget plan).
	Plan = exp.Plan
	// Session is a reusable execution arena bound to a Plan's shape:
	// repeated Execute calls reset it in place instead of rebuilding the
	// simulated machine, with byte-identical results.
	Session = exp.Session
	// SessionPool shares Sessions between goroutines (used internally by
	// TrainSweep and the fleet profiler).
	SessionPool = exp.SessionPool
	// Placement selects the hybrid strategy's tier-routing policy.
	Placement = exp.Placement
	// TierUsage summarizes one rung of the offload hierarchy after a run.
	TierUsage = exp.TierUsage
	// DRAMSweepResult is a DRAM-capacity sweep with its single-target
	// endpoints.
	DRAMSweepResult = exp.DRAMSweepResult
	// DRAMSweepRow is one point of a DRAM-capacity sweep.
	DRAMSweepRow = exp.DRAMSweepRow
	// Spec configures one training measurement, grouped by concern.
	Spec = exp.Spec
	// OffloadSpec groups the activation-offload knobs of a Spec.
	OffloadSpec = exp.OffloadSpec
	// OptimizerSpec groups the offloaded-optimizer knobs of a Spec.
	OptimizerSpec = exp.OptimizerSpec
	// RunSpec groups the measurement-shape knobs of a Spec.
	RunSpec = exp.RunSpec
	// InjectSpec groups fault injection, tracing and contention knobs.
	InjectSpec = exp.InjectSpec
	// MachineSpec groups the simulated hardware of a Spec.
	MachineSpec = exp.MachineSpec
	// OptimUsage is the per-run optimizer-tier accounting.
	OptimUsage = exp.OptimUsage
	// OptimSweepResult is the GreedySnake-vs-SSDTrain comparison sweep.
	OptimSweepResult = exp.OptimSweepResult
	// OptimSweepRow is one residency point of an optimizer sweep.
	OptimSweepRow = exp.OptimSweepRow
)

// PaperConfig returns the paper's §IV-A evaluation configuration for an
// architecture and geometry (TP2, sequence 1024, head dim 128, FP16,
// FlashAttention).
func PaperConfig(arch Arch, hidden, layers, batch int) ModelConfig {
	return models.PaperConfig(arch, hidden, layers, batch)
}

// Train runs one training measurement on the simulated testbed.
func Train(s Spec) (*RunResult, error) { return s.Measure() }

// OptimSweep measures the optimizer-offload strategy across DRAM
// residency fractions under both step schedules, with the SSDTrain
// activation baseline alongside (nil fracs selects quarters).
func OptimSweep(base Spec, fracs []float64) (*OptimSweepResult, error) {
	return exp.OptimSweep(base, fracs)
}

// OptimSweepTable renders an optimizer sweep as text.
func OptimSweepTable(r *OptimSweepResult) *trace.Table { return exp.OptimSweepTable(r) }

// Compile builds (or fetches from the shared plan cache) the run plan
// for a spec; plan.Execute then measures the flattened config
// (Spec.RunConfig) of any variant differing only in the cheap knobs:
// the offload budget, placement, DRAM capacity and split ratio, the
// optimizer kind and schedule, the step counts and steady-state mode,
// the bandwidth share, tracing and faults.
func Compile(s Spec) (*Plan, error) {
	cfg, err := s.RunConfig()
	if err != nil {
		return nil, err
	}
	return exp.Compile(cfg)
}

// NewSession binds a reusable execution arena to a compiled plan, for
// callers that drive their own repeated-Execute loops; Train and
// TrainSweep pool sessions automatically.
func NewSession(p *Plan) (*Session, error) { return exp.NewSession(p) }

// TrainSweep executes a batch of measurements with deduplicated work:
// specs that flatten to identical configs run once, cheap-knob variants
// share compiled plans, and points run concurrently across workers
// (0 = GOMAXPROCS) without affecting results.
func TrainSweep(workers int, specs []Spec) ([]*RunResult, error) {
	return exp.Sweep(workers, specs)
}

// DRAMSweep measures dram-first hybrid step time against DRAM capacity
// (fractions of the cpu-offload endpoint's residency peak; nil selects
// ninths), returning the sweep and both single-target endpoints.
func DRAMSweep(base Spec, fracs []float64) (*DRAMSweepResult, error) {
	return exp.DRAMSweep(base, fracs)
}

// DRAMSweepTable renders a DRAM-capacity sweep as text.
func DRAMSweepTable(r *DRAMSweepResult) *trace.Table { return exp.DRAMSweepTable(r) }

// Fig6 measures step time and activation peak for all nine evaluation
// points (Fig 6). batch 0 selects the paper's 16.
func Fig6(batch int) ([]exp.Fig6Row, error) { return exp.Fig6(batch) }

// Fig6Table renders Fig 6 rows as text.
func Fig6Table(rows []exp.Fig6Row) *trace.Table { return exp.Fig6Table(rows) }

// Fig7 sweeps the recompute-offload-keep curve for a 3-layer BERT.
func Fig7(hidden int, batches []int) ([]exp.ROKPoint, error) { return exp.Fig7(hidden, batches) }

// Fig8a decomposes the micro-batch-size throughput gain.
func Fig8a(batches []int) ([]exp.Fig8aRow, error) { return exp.Fig8a(batches) }

// Table3 compares measured offload volume with the analytic estimate.
func Table3() ([]exp.Table3Row, error) { return exp.Table3() }

// Table1 renders the Table I feature matrix.
func Table1() *trace.Table { return exp.Table1() }

// Fig1 fits the GPU-vs-LLM scaling trends (Fig 1).
func Fig1() perfmodel.Fig1Summary { return perfmodel.Fig1() }

// Fig5 projects SSD lifespan, write bandwidth and activation volume for
// large-scale systems (Fig 5).
func Fig5() []perfmodel.Fig5Row { return perfmodel.Fig5() }

// Fig8b projects per-GPU write bandwidth under upscaling (Fig 8b).
func Fig8b() []perfmodel.Fig8bRow { return perfmodel.Fig8b() }

// Fig8bReference projects the 2-GPU testbed reference line of Fig 8b.
func Fig8bReference() perfmodel.Projection { return perfmodel.Fig8bReference() }

// Fleet types: the multi-job cluster simulation with shared-SSD
// contention (internal/fleet).
type (
	// FleetConfig configures one cluster simulation.
	FleetConfig = fleet.Config
	// FleetClusterSpec is a homogeneous cluster of nodes.
	FleetClusterSpec = fleet.ClusterSpec
	// FleetNodeSpec is one node: GPUs plus the NVMe array they share.
	FleetNodeSpec = fleet.NodeSpec
	// FleetJob is one queued training job.
	FleetJob = fleet.Job
	// FleetMixConfig parameterizes the seeded job-mix generator.
	FleetMixConfig = fleet.MixConfig
	// FleetPolicy selects a scheduling discipline.
	FleetPolicy = fleet.Policy
	// FleetReport is a simulation outcome (byte-identical per seed).
	FleetReport = fleet.Report
	// FleetScenario names one simulation in a sweep.
	FleetScenario = fleet.Scenario
	// FleetProfiler memoizes contended job measurements.
	FleetProfiler = fleet.Profiler
)

// Fleet scheduling policies.
const (
	FleetFIFO     = fleet.FIFO
	FleetSJF      = fleet.SJF
	FleetBackfill = fleet.Backfill
)

// DefaultFleetNode returns the fleet evaluation node (4× A100-SXM-80GB
// sharing an 8-drive Samsung 980 PRO array).
func DefaultFleetNode() FleetNodeSpec { return fleet.DefaultNodeSpec() }

// FleetJobMix draws a seeded heterogeneous job mix.
func FleetJobMix(cfg FleetMixConfig) []FleetJob { return fleet.DefaultJobMix(cfg) }

// FleetSimulate runs one cluster simulation.
func FleetSimulate(cfg FleetConfig) (*FleetReport, error) { return fleet.Simulate(cfg) }

// FleetSweep runs scenarios concurrently through the deterministic
// worker pool, returning reports in scenario order.
func FleetSweep(scenarios []FleetScenario, workers int) ([]*FleetReport, error) {
	return fleet.Sweep(scenarios, workers)
}

// FleetPolicySweep simulates one job mix under each policy, sharing the
// profile cache across policies.
func FleetPolicySweep(cluster FleetClusterSpec, jobs []FleetJob, policies []FleetPolicy, workers int) ([]*FleetReport, error) {
	return fleet.PolicySweep(cluster, jobs, policies, workers)
}

// FleetPolicySweepConfig is the full option set for a policy sweep,
// including a shared fault plan.
type FleetPolicySweepConfig = fleet.PolicySweepConfig

// FleetPolicySweepWith is FleetPolicySweep with the full option set.
func FleetPolicySweepWith(cfg FleetPolicySweepConfig) ([]*FleetReport, error) {
	return fleet.PolicySweepWith(cfg)
}

// FleetCompareTable renders a policy comparison of sweep reports.
func FleetCompareTable(reports []*FleetReport) *trace.Table { return fleet.CompareTable(reports) }

// ParseFleetPolicy resolves a scheduling policy name.
func ParseFleetPolicy(name string) (FleetPolicy, error) { return fleet.ParsePolicy(name) }

// NewFleetProfiler creates a profile cache to share across simulations
// (0 = default capacity).
func NewFleetProfiler(capacity int) *FleetProfiler { return fleet.NewProfiler(capacity) }

// Fault injection (internal/faults): seeded, schedulable device deaths,
// transient bandwidth degradation and node drains, deterministic end to
// end — the same plan yields byte-identical reports and traces.
type (
	// FaultSpec injects faults into one training run
	// (InjectSpec.Faults): a single device death (timed or wear-triggered)
	// and/or one bandwidth-degradation window.
	FaultSpec = faults.Spec
	// FaultPlan schedules fault events across a fleet simulation
	// (FleetConfig.Faults, FleetMixConfig.FaultPlan) plus the
	// checkpoint-restart cost model applied to killed jobs.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault: a device death, a degradation
	// window or a node drain.
	FaultEvent = faults.Event
	// FaultEventKind discriminates FaultEvent.
	FaultEventKind = faults.EventKind
	// DeviceFailedError is the typed error a run surfaces when an
	// injected failure removes the tier a transfer needs; sessions stay
	// reusable after it.
	DeviceFailedError = core.DeviceFailedError
)

// Fault event kinds.
const (
	FaultDeath   = faults.Death
	FaultDegrade = faults.Degrade
	FaultDrain   = faults.Drain
)

// ParseFaultPlan parses the textual fault-plan syntax shared by
// cmd/fleet -faults and the /v1/fleet API (for example
// "death@30s:node0:dev1,drain@2m:node1:5m,ckpt=25").
func ParseFaultPlan(s string) (FaultPlan, error) { return faults.ParsePlan(s) }
