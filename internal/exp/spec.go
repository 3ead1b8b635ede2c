package exp

import (
	"fmt"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// Spec is the configuration form callers build: one training
// measurement's knobs, grouped by concern. Spec.RunConfig flattens it
// into the RunConfig the execution layer runs and caches on. Flattening errors only on an internally
// inconsistent optimizer group (an optimizer-offload flag that
// contradicts the activation strategy).
type Spec struct {
	// Model is the transformer geometry under test.
	Model models.Config `json:"model"`
	// Machine is the simulated testbed (defaults: A100 PCIe + the
	// paper's 4× P5800X array).
	Machine MachineSpec `json:"machine,omitzero"`
	// Offload configures the activation-offload strategy and its tier
	// shape, cache tuning and ablation knobs.
	Offload OffloadSpec `json:"offload,omitzero"`
	// Optimizer configures the offloaded-optimizer tier (OptimOffload).
	Optimizer OptimizerSpec `json:"optimizer,omitzero"`
	// Run shapes the measurement itself: step counts, accumulation, and
	// the steady-state fast path.
	Run RunSpec `json:"run,omitzero"`
	// Inject holds observability and perturbation: fault injection, span
	// tracing, and co-tenant bandwidth contention.
	Inject InjectSpec `json:"inject,omitzero"`
}

// MachineSpec groups the simulated hardware.
type MachineSpec struct {
	GPU gpu.Spec `json:"gpu,omitzero"`
	SSD SSDSetup `json:"ssd,omitzero"`
}

// OffloadSpec groups the activation-offload knobs: which strategy, how
// the tier hierarchy is shaped, and the cache/ablation switches.
type OffloadSpec struct {
	Strategy     Strategy    `json:"strategy,omitempty"`
	Placement    Placement   `json:"placement,omitempty"`
	DRAMCapacity units.Bytes `json:"dram_capacity,omitempty"`
	SplitRatio   float64     `json:"split_ratio,omitempty"`
	// Budget overrides the planned offload budget (0 = plan via Fig 3).
	Budget units.Bytes `json:"budget,omitempty"`
	// Cache tuning and ablations.
	PrefetchAhead   int           `json:"prefetch_ahead,omitempty"`
	KeepLastModules int           `json:"keep_last_modules,omitempty"`
	HostCost        time.Duration `json:"host_cost,omitempty"`
	DisableGDS      bool          `json:"disable_gds,omitempty"`
	NoForwarding    bool          `json:"no_forwarding,omitempty"`
	NoDedup         bool          `json:"no_dedup,omitempty"`
	Materialize     bool          `json:"materialize,omitempty"`
	Verify          bool          `json:"verify,omitempty"`
}

// OptimizerSpec groups the offloaded-optimizer knobs. Offload is the
// grouped spelling of Strategy == OptimOffload: setting it routes the
// run to the optimizer-offload strategy family; Kind and Schedule then
// select the state layout and the step schedule.
type OptimizerSpec struct {
	Kind     string `json:"kind,omitempty"`
	Offload  bool   `json:"offload,omitempty"`
	Schedule string `json:"schedule,omitempty"`
}

// RunSpec groups the measurement-shape knobs.
type RunSpec struct {
	Steps        int    `json:"steps,omitempty"`
	Warmup       int    `json:"warmup,omitempty"`
	MicroBatches int    `json:"micro_batches,omitempty"`
	SteadyState  string `json:"steady_state,omitempty"`
}

// InjectSpec groups observability and perturbation.
type InjectSpec struct {
	Faults            faults.Spec `json:"faults,omitzero"`
	Trace             bool        `json:"trace,omitempty"`
	SSDBandwidthShare float64     `json:"ssd_bandwidth_share,omitempty"`
}

// RunConfig flattens the Spec. The only way a Spec can fail to flatten
// is an inconsistent optimizer group: Optimizer.Offload selects the
// OptimOffload strategy, so Offload.Strategy must be unset or agree;
// conversely a Spec naming the OptimOffload strategy must not clear
// Optimizer.Offload. (Optimizer.Kind/Schedule against a non-optimizer
// strategy flatten fine and are rejected later by Normalize.)
func (s Spec) RunConfig() (RunConfig, error) {
	strategy := s.Offload.Strategy
	if s.Optimizer.Offload {
		if strategy != "" && strategy != OptimOffload {
			return RunConfig{}, fmt.Errorf("exp: spec optimizer.offload conflicts with offload.strategy %q", strategy)
		}
		strategy = OptimOffload
	} else if strategy == OptimOffload {
		return RunConfig{}, fmt.Errorf("exp: spec offload.strategy %q requires optimizer.offload", strategy)
	}
	return RunConfig{
		Model:             s.Model,
		Strategy:          strategy,
		GPU:               s.Machine.GPU,
		SSD:               s.Machine.SSD,
		Steps:             s.Run.Steps,
		Warmup:            s.Run.Warmup,
		MicroBatches:      s.Run.MicroBatches,
		Budget:            s.Offload.Budget,
		PrefetchAhead:     s.Offload.PrefetchAhead,
		KeepLastModules:   s.Offload.KeepLastModules,
		HostCost:          s.Offload.HostCost,
		DisableGDS:        s.Offload.DisableGDS,
		NoForwarding:      s.Offload.NoForwarding,
		NoDedup:           s.Offload.NoDedup,
		Materialize:       s.Offload.Materialize,
		Verify:            s.Offload.Verify,
		Placement:         s.Offload.Placement,
		DRAMCapacity:      s.Offload.DRAMCapacity,
		SplitRatio:        s.Offload.SplitRatio,
		OptimKind:         s.Optimizer.Kind,
		Schedule:          s.Optimizer.Schedule,
		SSDBandwidthShare: s.Inject.SSDBandwidthShare,
		SteadyState:       s.Run.SteadyState,
		Trace:             s.Inject.Trace,
		Faults:            s.Inject.Faults,
	}, nil
}

// Measure runs the Spec: flatten, then the standard Run path.
func (s Spec) Measure() (*RunResult, error) {
	cfg, err := s.RunConfig()
	if err != nil {
		return nil, err
	}
	return Run(cfg)
}
