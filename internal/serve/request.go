package serve

import (
	"errors"
	"fmt"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// ModelSpec selects the transformer configuration of a planning request.
// Arch, Hidden, Layers and Batch are required; the optional geometry
// fields default to the paper's §IV-A evaluation values (sequence 1024,
// head dim 128, TP 2, FP16, FlashAttention).
type ModelSpec struct {
	Arch   string `json:"arch"` // gpt | bert | t5
	Hidden int    `json:"hidden"`
	Layers int    `json:"layers"`
	Batch  int    `json:"batch"`
	// Optional geometry overrides; zero keeps the paper defaults.
	SeqLen  int `json:"seq_len,omitempty"`
	HeadDim int `json:"head_dim,omitempty"`
	TP      int `json:"tp,omitempty"`
}

// Request size bounds: the service answers planning questions, and an
// untrusted question must not be able to buy an arbitrarily long
// simulation with one cheap request. The caps sit far above the paper's
// evaluation range (and the fleet node palette) while keeping any
// accepted request's simulation cost bounded.
const (
	maxModelHidden  = 1 << 18
	maxModelLayers  = 512
	maxModelBatch   = 1 << 16
	maxModelSeqLen  = 1 << 20
	maxModelTP      = 64
	maxSteps        = 100
	maxMicroBatches = 256
	maxFleetGPUs    = 64
	maxFleetSteps   = 1 << 20
	// maxFleetSpreadMs (about 35 years) and maxFleetDRAMGiB (1 PiB per
	// node) keep the fleet's time.Duration and units.Bytes conversions
	// far from int64 overflow, which starts near 9.2e12 ms and 8.6e9 GiB.
	maxFleetSpreadMs = 1 << 40
	maxFleetDRAMGiB  = 1 << 20
)

// config resolves the spec to a validated models.Config.
func (m ModelSpec) config() (models.Config, error) {
	arch := models.Arch(m.Arch)
	switch arch {
	case models.GPT, models.BERT, models.T5:
	default:
		return models.Config{}, fmt.Errorf("serve: unknown arch %q (want gpt, bert or t5)", m.Arch)
	}
	switch {
	case m.Hidden > maxModelHidden:
		return models.Config{}, fmt.Errorf("serve: hidden %d exceeds the service limit %d", m.Hidden, maxModelHidden)
	case m.Layers > maxModelLayers:
		return models.Config{}, fmt.Errorf("serve: layers %d exceeds the service limit %d", m.Layers, maxModelLayers)
	case m.Batch > maxModelBatch:
		return models.Config{}, fmt.Errorf("serve: batch %d exceeds the service limit %d", m.Batch, maxModelBatch)
	case m.SeqLen > maxModelSeqLen:
		return models.Config{}, fmt.Errorf("serve: seq_len %d exceeds the service limit %d", m.SeqLen, maxModelSeqLen)
	case m.TP > maxModelTP:
		return models.Config{}, fmt.Errorf("serve: tp %d exceeds the service limit %d", m.TP, maxModelTP)
	}
	cfg := models.PaperConfig(arch, m.Hidden, m.Layers, m.Batch)
	if m.SeqLen > 0 {
		cfg.SeqLen = m.SeqLen
	}
	if m.HeadDim > 0 {
		cfg.HeadDim = m.HeadDim
	}
	if m.TP > 0 {
		cfg.TP = m.TP
	}
	if err := cfg.Validate(); err != nil {
		return models.Config{}, err
	}
	return cfg, nil
}

// PlanRequest is the body of POST /v1/plan and /v1/trace, and the base of
// a /v1/sweep: one what-if planning question against the simulated
// testbed, as a single "spec" object mirroring exp.Spec group for group.
// Only spec.model is required; every other field is a knob with the
// experiment harness's defaults.
type PlanRequest struct {
	Spec SpecRequest `json:"spec"`
}

// SpecRequest is a plan question, mirroring exp.Spec group for group.
// The machine group is deliberately absent from the wire: the service
// always simulates its own testbed.
type SpecRequest struct {
	Model     ModelSpec        `json:"model"`
	Offload   OffloadRequest   `json:"offload,omitzero"`
	Optimizer OptimizerRequest `json:"optimizer,omitzero"`
	Run       RunRequest       `json:"run,omitzero"`
	Inject    InjectRequest    `json:"inject,omitzero"`
}

// OffloadRequest mirrors exp.OffloadSpec on the wire.
type OffloadRequest struct {
	Strategy          string  `json:"strategy,omitempty"`
	Placement         string  `json:"placement,omitempty"`
	DRAMCapacityBytes int64   `json:"dram_capacity_bytes,omitempty"`
	SplitRatio        float64 `json:"split_ratio,omitempty"`
	BudgetBytes       int64   `json:"budget_bytes,omitempty"`
	KeepLastModules   int     `json:"keep_last_modules,omitempty"`
	PrefetchAhead     int     `json:"prefetch_ahead,omitempty"`
	DisableGDS        bool    `json:"disable_gds,omitempty"`
}

// OptimizerRequest mirrors exp.OptimizerSpec on the wire.
type OptimizerRequest struct {
	Kind     string `json:"kind,omitempty"`
	Offload  bool   `json:"offload,omitempty"`
	Schedule string `json:"schedule,omitempty"`
}

// RunRequest mirrors exp.RunSpec on the wire.
type RunRequest struct {
	Steps        int `json:"steps,omitempty"`
	Warmup       int `json:"warmup,omitempty"`
	MicroBatches int `json:"micro_batches,omitempty"`
}

// InjectRequest mirrors exp.InjectSpec on the wire.
type InjectRequest struct {
	Faults            *FaultSpec `json:"faults,omitempty"`
	SSDBandwidthShare float64    `json:"ssd_bandwidth_share,omitempty"`
}

// FaultSpec is the wire form of exp.InjectSpec.Faults: a single-run fault
// schedule against the NVMe array. Durations are microseconds — a
// simulated training step is a few hundred milliseconds, so millisecond
// granularity would be too coarse for mid-step events.
type FaultSpec struct {
	// DeviceDeathAtUs kills array member Device (-1 = whole array) at the
	// given simulated time.
	DeviceDeathAtUs int64 `json:"device_death_at_us,omitempty"`
	Device          int   `json:"device,omitempty"`
	// WearThreshold kills the device when the array's wear fraction
	// crosses it instead of at a fixed time.
	WearThreshold float64 `json:"wear_threshold,omitempty"`
	// Degrade* model a transient bandwidth degradation window.
	DegradeAtUs   int64   `json:"degrade_at_us,omitempty"`
	DegradeFactor float64 `json:"degrade_factor,omitempty"`
	DegradeForUs  int64   `json:"degrade_for_us,omitempty"`
	// Rebuild* tune the RAID-rebuild window after a member death.
	RebuildForUs int64   `json:"rebuild_for_us,omitempty"`
	RebuildSteal float64 `json:"rebuild_steal,omitempty"`
}

// spec converts the wire form to the harness's fault spec.
func (f *FaultSpec) spec() faults.Spec {
	if f == nil {
		return faults.Spec{}
	}
	return faults.Spec{
		DeviceDeathAt: time.Duration(f.DeviceDeathAtUs) * time.Microsecond,
		Device:        f.Device,
		WearThreshold: f.WearThreshold,
		DegradeAt:     time.Duration(f.DegradeAtUs) * time.Microsecond,
		DegradeFactor: f.DegradeFactor,
		DegradeFor:    time.Duration(f.DegradeForUs) * time.Microsecond,
		RebuildFor:    time.Duration(f.RebuildForUs) * time.Microsecond,
		RebuildSteal:  f.RebuildSteal,
	}
}

// RunConfig resolves the request to its normalized exp.RunConfig — the
// canonical form the server's result cache and singleflight key on, and
// the identity a cluster router's shard key (exp.ShapeHash) is computed
// from.
func (r PlanRequest) RunConfig() (exp.RunConfig, error) {
	s := r.Spec
	if s == (SpecRequest{}) {
		return exp.RunConfig{}, errNoSpec
	}
	model, err := s.Model.config()
	if err != nil {
		return exp.RunConfig{}, err
	}
	switch {
	case s.Run.Steps > maxSteps:
		return exp.RunConfig{}, fmt.Errorf("serve: steps %d exceeds the service limit %d", s.Run.Steps, maxSteps)
	case s.Run.Warmup > maxSteps:
		return exp.RunConfig{}, fmt.Errorf("serve: warmup %d exceeds the service limit %d", s.Run.Warmup, maxSteps)
	case s.Run.MicroBatches > maxMicroBatches:
		return exp.RunConfig{}, fmt.Errorf("serve: micro_batches %d exceeds the service limit %d", s.Run.MicroBatches, maxMicroBatches)
	}
	spec := exp.Spec{
		Model: model,
		Offload: exp.OffloadSpec{
			Strategy:        exp.Strategy(s.Offload.Strategy),
			Placement:       exp.Placement(s.Offload.Placement),
			DRAMCapacity:    units.Bytes(s.Offload.DRAMCapacityBytes),
			SplitRatio:      s.Offload.SplitRatio,
			Budget:          units.Bytes(s.Offload.BudgetBytes),
			KeepLastModules: s.Offload.KeepLastModules,
			PrefetchAhead:   s.Offload.PrefetchAhead,
			DisableGDS:      s.Offload.DisableGDS,
		},
		Optimizer: exp.OptimizerSpec{
			Kind:     s.Optimizer.Kind,
			Offload:  s.Optimizer.Offload,
			Schedule: s.Optimizer.Schedule,
		},
		Run: exp.RunSpec{
			Steps:        s.Run.Steps,
			Warmup:       s.Run.Warmup,
			MicroBatches: s.Run.MicroBatches,
		},
		Inject: exp.InjectSpec{
			Faults:            s.Inject.Faults.spec(),
			SSDBandwidthShare: s.Inject.SSDBandwidthShare,
		},
	}
	cfg, err := spec.RunConfig()
	if err != nil {
		return exp.RunConfig{}, err
	}
	return exp.Normalize(cfg)
}

// specForm is the one body form of a plan question, named by the errors
// that reject any other.
const specForm = `a plan question is {"spec": {"model": {...}, "offload": {...}, ...}}`

// errNoSpec rejects a plan question without its "spec" object.
var errNoSpec = errors.New("serve: " + specForm)

// TierUsage is one rung of the offload hierarchy in a response.
type TierUsage struct {
	Name          string `json:"name"`
	Kind          string `json:"kind"`
	WrittenBytes  int64  `json:"written_bytes"`
	ReadBytes     int64  `json:"read_bytes"`
	PeakBytes     int64  `json:"peak_bytes"`
	CapacityBytes int64  `json:"capacity_bytes,omitempty"`
}

// PlanResponse is the body of a /v1/plan answer and of every /v1/sweep
// NDJSON line: the steady-state step time, the Fig 3 per-module offload
// budget, memory peaks and per-tier traffic of one measured
// configuration.
type PlanResponse struct {
	// Schema versions the response body; "v2" marks the generation that
	// answers spec requests and optimizer-offload plans.
	Schema   string `json:"schema"`
	Model    string `json:"model"`
	Strategy string `json:"strategy"`
	// Echoes of the cheap knobs that distinguish sweep points.
	Placement         string  `json:"placement,omitempty"`
	SSDBandwidthShare float64 `json:"ssd_bandwidth_share,omitempty"`
	DRAMCapacityBytes int64   `json:"dram_capacity_bytes,omitempty"`
	SplitRatio        float64 `json:"split_ratio,omitempty"`
	BudgetBytes       int64   `json:"budget_bytes,omitempty"`
	OptimKind         string  `json:"optim_kind,omitempty"`
	Schedule          string  `json:"schedule,omitempty"`

	StepTimeNs int64  `json:"step_time_ns"`
	StepTime   string `json:"step_time"`
	// PlannedBudgetBytes is the per-module offload budget the Fig 3
	// workflow chose (or the pinned override the run used).
	PlannedBudgetBytes  int64   `json:"planned_budget_bytes"`
	WeightBytes         int64   `json:"weight_bytes"`
	EligibleBytes       int64   `json:"eligible_bytes"`
	ActivationPeakBytes int64   `json:"activation_peak_bytes"`
	TotalPeakBytes      int64   `json:"total_peak_bytes"`
	OffloadedBytes      int64   `json:"offloaded_bytes"`
	ReloadedBytes       int64   `json:"reloaded_bytes"`
	ForwardedBytes      int64   `json:"forwarded_bytes"`
	ComputeStallNs      int64   `json:"compute_stall_ns"`
	ModelTFLOPS         float64 `json:"model_tflops"`
	OffloadPeakBytes    int64   `json:"offload_peak_bytes,omitempty"`
	// StepsMeasured counts every step of the run, warmup and measured
	// alike — simulated or synthesized by the fast path — so it always
	// equals warmup + steps.
	StepsMeasured int `json:"steps_measured"`

	// SteadyState reports the fast path's outcome for this measurement:
	// how many steps were simulated vs extrapolated, and the fallback
	// reason when the run was fully simulated.
	SteadyState exp.SteadyStateInfo `json:"steady_state"`

	Tiers []TierUsage `json:"tiers,omitempty"`
	// Optim summarizes the offloaded-optimizer pipeline (optim-offload
	// strategy only).
	Optim *OptimUsage `json:"optim,omitempty"`
}

// OptimUsage is the wire form of exp.OptimUsage.
type OptimUsage struct {
	Kind              string `json:"kind"`
	Schedule          string `json:"schedule"`
	StateBytes        int64  `json:"state_bytes"`
	DRAMResidentBytes int64  `json:"dram_resident_bytes"`
	NVMeResidentBytes int64  `json:"nvme_resident_bytes"`
	ShuttleWriteBytes int64  `json:"shuttle_write_bytes_per_step"`
	ShuttleReadBytes  int64  `json:"shuttle_read_bytes_per_step"`
	UpdateBusyNs      int64  `json:"update_busy_ns"`
}

// NewPlanResponse projects a measurement result onto the wire schema.
func NewPlanResponse(res *exp.RunResult) PlanResponse {
	cfg := res.Config
	p := PlanResponse{
		Schema:              "v2",
		Model:               cfg.Model.String(),
		Strategy:            string(cfg.Strategy),
		OptimKind:           cfg.OptimKind,
		Schedule:            cfg.Schedule,
		Placement:           string(cfg.Placement),
		SSDBandwidthShare:   cfg.SSDBandwidthShare,
		DRAMCapacityBytes:   int64(cfg.DRAMCapacity),
		SplitRatio:          cfg.SplitRatio,
		BudgetBytes:         int64(cfg.Budget),
		StepTimeNs:          res.StepTime().Nanoseconds(),
		StepTime:            res.StepTime().Round(time.Microsecond).String(),
		PlannedBudgetBytes:  int64(res.PlannedBudget),
		WeightBytes:         int64(res.WeightBytes),
		EligibleBytes:       int64(res.EligibleBytes),
		ActivationPeakBytes: int64(res.Measured.ActPeak),
		TotalPeakBytes:      int64(res.Measured.TotalPeak),
		OffloadedBytes:      int64(res.Measured.IO.Offloaded),
		ReloadedBytes:       int64(res.Measured.IO.Reloaded),
		ForwardedBytes:      int64(res.Measured.IO.Forwarded),
		ComputeStallNs:      res.Measured.Stats.ComputeStall.Nanoseconds(),
		ModelTFLOPS:         float64(res.Throughput()) / float64(units.TFLOPS),
		OffloadPeakBytes:    int64(res.SSDPeak),
		StepsMeasured:       len(res.PerStep),
		SteadyState:         res.SteadyState,
	}
	for _, t := range res.Tiers {
		p.Tiers = append(p.Tiers, TierUsage{
			Name:          t.Name,
			Kind:          string(t.Kind),
			WrittenBytes:  int64(t.Written),
			ReadBytes:     int64(t.Read),
			PeakBytes:     int64(t.Peak),
			CapacityBytes: int64(t.Capacity),
		})
	}
	if res.Optim != nil {
		p.Optim = &OptimUsage{
			Kind:              res.Optim.Kind,
			Schedule:          res.Optim.Schedule,
			StateBytes:        int64(res.Optim.StateBytes),
			DRAMResidentBytes: int64(res.Optim.DRAMResident),
			NVMeResidentBytes: int64(res.Optim.NVMeResident),
			ShuttleWriteBytes: int64(res.Optim.ShuttleWrite),
			ShuttleReadBytes:  int64(res.Optim.ShuttleRead),
			UpdateBusyNs:      res.Optim.UpdateBusy.Nanoseconds(),
		}
	}
	return p
}

// SweepRequest is the body of POST /v1/sweep: a base planning question
// fanned across cheap-knob axes. Empty axes keep the base value; the
// points are the cross product in (share, placement, dram capacity,
// split ratio) nesting order, streamed as one NDJSON PlanResponse line
// each, in order.
type SweepRequest struct {
	Base                PlanRequest `json:"base"`
	Shares              []float64   `json:"shares,omitempty"`
	Placements          []string    `json:"placements,omitempty"`
	DRAMCapacitiesBytes []int64     `json:"dram_capacities_bytes,omitempty"`
	SplitRatios         []float64   `json:"split_ratios,omitempty"`
}

// maxSweepPoints bounds one sweep request's fan-out; bigger studies
// should shard across requests so no single stream monopolizes the
// worker slots its points take while simulating.
const maxSweepPoints = 1024

// configs expands the sweep's cross product into normalized run configs.
// Every point must validate — a sweep with an impossible axis value is
// rejected whole rather than half-streamed.
func (r SweepRequest) configs() ([]exp.RunConfig, error) {
	base, err := r.Base.RunConfig()
	if err != nil {
		return nil, err
	}
	shares := r.Shares
	if len(shares) == 0 {
		shares = []float64{base.SSDBandwidthShare}
	}
	placements := r.Placements
	if len(placements) == 0 {
		placements = []string{string(base.Placement)}
	}
	caps := r.DRAMCapacitiesBytes
	if len(caps) == 0 {
		caps = []int64{int64(base.DRAMCapacity)}
	}
	ratios := r.SplitRatios
	if len(ratios) == 0 {
		ratios = []float64{base.SplitRatio}
	}
	n := len(shares) * len(placements) * len(caps) * len(ratios)
	if n > maxSweepPoints {
		return nil, fmt.Errorf("serve: sweep has %d points, the limit is %d", n, maxSweepPoints)
	}
	cfgs := make([]exp.RunConfig, 0, n)
	for _, sh := range shares {
		for _, pl := range placements {
			for _, dc := range caps {
				for _, sr := range ratios {
					cfg := base
					cfg.SSDBandwidthShare = sh
					cfg.Placement = exp.Placement(pl)
					cfg.DRAMCapacity = units.Bytes(dc)
					cfg.SplitRatio = sr
					norm, err := exp.Normalize(cfg)
					if err != nil {
						return nil, fmt.Errorf("serve: sweep point (share %v, placement %q, dram %d, ratio %v): %w", sh, pl, dc, sr, err)
					}
					cfgs = append(cfgs, norm)
				}
			}
		}
	}
	return cfgs, nil
}
