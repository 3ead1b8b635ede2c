package exp

import (
	"fmt"
	"math"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/core"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/lru"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// Plan is a compiled measurement: the pure, config-shape-dependent work
// of Run — the model graph template and the per-module activation and
// backward-time vectors the Fig 3 planner reads — built once so a sweep
// that varies only the cheap knobs pays graph construction and analysis
// once. The cheap knobs are the fields shapeKey zeroes: Budget, Steps,
// Warmup, SSDBandwidthShare, SteadyState, Placement, DRAMCapacity,
// SplitRatio, OptimKind, Schedule, Trace and Faults. A Plan is immutable
// data: nothing writes to it after Compile, so concurrent Execute calls
// share it freely. Each execution runs on its own arena (a Session),
// either single-use (Plan.Execute) or recycled (Session.Execute via a
// SessionPool), and plans its own budget.
type Plan struct {
	// shape is the plan's identity: the defaulted config with the cheap
	// knobs zeroed.
	shape RunConfig

	tmpl *autograd.Graph
	// modules is the template at module granularity, the planner's input
	// but for the tiers' bandwidths, which each Execute supplies.
	modules     core.ModulePlan
	weightBytes units.Bytes
	eligible    units.Bytes
	// lastModule is the final block's saved-activation volume — the bytes
	// the planner always keeps resident because backward consumes them
	// immediately (Fig 2 ④).
	lastModule units.Bytes
	// devNames are the per-GPU array's member device names ("nvme0"...),
	// rendered once at compile so arena construction never formats
	// strings on the sweep path.
	devNames []string
	// footprint is the template's per-step device footprint, which sizes
	// a fresh arena's scratch before its first step.
	footprint autograd.Footprint
}

// shapeKey reduces a defaulted config to plan identity by zeroing the
// knobs a Plan absorbs at Execute time.
func shapeKey(cfg RunConfig) RunConfig {
	cfg.Budget = 0
	cfg.Steps = 0
	cfg.Warmup = 0
	cfg.SSDBandwidthShare = 0
	// The steady-state fast path reproduces full simulation byte for
	// byte, so fast and forced-full configs share one plan (and arena).
	cfg.SteadyState = ""
	cfg.Placement = ""
	cfg.DRAMCapacity = 0
	cfg.SplitRatio = 0
	// The optimizer knobs change state sizes and the step schedule, never
	// the graph template — the arena's optimizer rungs rebind per Execute.
	cfg.OptimKind = ""
	cfg.Schedule = ""
	// Tracing observes a run without changing it, so traced and untraced
	// configs share one plan (and one pooled arena).
	cfg.Trace = false
	// Fault injection changes when transfers happen, never the graph or
	// the budget plan (budgets are planned against healthy bandwidths — a
	// fault is a surprise, not something the planner anticipates), so a
	// faulted config shares the fault-free plan.
	cfg.Faults = faults.Spec{}
	return cfg
}

// Normalize validates cfg and returns it with the paper defaults filled
// in — the canonical form under which value-identical measurements
// coincide. Sweep's dedup map, the fleet profiler's cache and the serve
// result cache all key on this form, so a spelled-out config and its
// defaulted twin share one simulation.
func Normalize(cfg RunConfig) (RunConfig, error) {
	cfg = cfg.withDefaults()
	if _, ok := presets[cfg.Strategy]; !ok {
		return RunConfig{}, fmt.Errorf("exp: unknown strategy %q", cfg.Strategy)
	}
	if err := validateKnobs(cfg); err != nil {
		return RunConfig{}, err
	}
	return cfg, nil
}

// ShapeKey validates cfg and reduces it to its plan identity: the
// normalized config with the cheap knobs zeroed. Two configs with equal
// shape keys compile to the same *Plan and can share a pooled execution
// arena — the routing key a sharded cluster hashes (ShapeHash), so one
// shape's requests reach the replica whose arenas are warm for it.
func ShapeKey(cfg RunConfig) (RunConfig, error) {
	n, err := Normalize(cfg)
	if err != nil {
		return RunConfig{}, err
	}
	return shapeKey(n), nil
}

// planCache memoizes compiled plans across Run calls, so naive per-point
// sweeps (the figure generators, fleet profiling) share plans without
// managing them explicitly.
var planCache = lru.New[RunConfig, *Plan](256)

// planFlight coalesces concurrent compilations of one shape.
var planFlight lru.Singleflight[RunConfig, *Plan]

// Compile builds the run plan for a configuration. The returned plan can
// Execute any config that differs from cfg only in the cheap knobs.
// Plans are cached: compiling the same shape twice returns the same plan.
// The plan holds no budget: every Execute with Budget 0 runs the Fig 3
// planner on its own tier mix, which costs less than a microsecond.
func Compile(cfg RunConfig) (*Plan, error) {
	cfg = cfg.withDefaults()
	if err := validateKnobs(cfg); err != nil {
		return nil, err
	}
	key := shapeKey(cfg)
	if p, ok := planCache.Get(key); ok {
		return p, nil
	}
	p, err, _ := planFlight.Do(key, func() (*Plan, error) {
		if p, ok := planCache.GetQuiet(key); ok {
			return p, nil
		}
		p, err := compile(key)
		if err == nil {
			planCache.Put(key, p)
		}
		return p, err
	})
	return p, err
}

// PlanCacheSnapshot reports the shared plan cache's full counter set —
// hit/miss plus evictions and resident size, so an observer (the serve
// /metrics endpoint) can tell a big-enough cache from one thrashing on
// capacity misses.
func PlanCacheSnapshot() (hits, misses, evictions int64, length int) {
	hits, misses = planCache.Stats()
	return hits, misses, planCache.Evictions(), planCache.Len()
}

// MinSSDBandwidthShare is the smallest nonzero SSD bandwidth share a run
// accepts: a millionth of the array. Below it one step's transfers can
// run for centuries of simulated time, past what a time.Duration holds.
const MinSSDBandwidthShare = 1e-6

// ShareError rejects an SSD bandwidth share that is NaN, outside [0, 1],
// or nonzero but below MinSSDBandwidthShare.
type ShareError struct{ Share float64 }

func (e *ShareError) Error() string {
	if e.Share > 0 && e.Share < MinSSDBandwidthShare {
		return fmt.Sprintf("exp: SSD bandwidth share %v below the floor %v", e.Share, MinSSDBandwidthShare)
	}
	return fmt.Sprintf("exp: SSD bandwidth share %v outside [0, 1]", e.Share)
}

func validateShare(s float64) error {
	if !(s == 0 || s >= MinSSDBandwidthShare && s <= 1) {
		return &ShareError{Share: s}
	}
	return nil
}

// validateKnobs checks the cheap knobs a plan absorbs at Execute time —
// they are zeroed out of the plan's shape, so both Compile and Execute
// validate them.
func validateKnobs(cfg RunConfig) error {
	if err := validateShare(cfg.SSDBandwidthShare); err != nil {
		return err
	}
	// withDefaults only replaces zeros, so negatives would otherwise leak
	// through: negative Steps runs a warmup-only measurement (and with
	// Warmup also negative, panics on an empty PerStep), and a negative
	// Budget bypasses the planner with a nonsense bound. Reject them —
	// the one deliberate negative is KeepLastModules (-1 = keep-nothing
	// ablation), and PrefetchAhead < 0 (prefetch disabled).
	if cfg.Steps < 0 {
		return fmt.Errorf("exp: negative step count %d", cfg.Steps)
	}
	if cfg.Warmup < 0 {
		return fmt.Errorf("exp: negative warmup count %d", cfg.Warmup)
	}
	if cfg.MicroBatches < 0 {
		return fmt.Errorf("exp: negative micro-batch count %d", cfg.MicroBatches)
	}
	if cfg.Budget < 0 {
		return fmt.Errorf("exp: negative offload budget %v", cfg.Budget)
	}
	if math.IsNaN(cfg.SplitRatio) || cfg.SplitRatio < 0 || cfg.SplitRatio > 1 {
		return fmt.Errorf("exp: split ratio %v outside [0, 1]", cfg.SplitRatio)
	}
	if cfg.DRAMCapacity < 0 {
		return fmt.Errorf("exp: negative DRAM capacity %v", cfg.DRAMCapacity)
	}
	switch cfg.SteadyState {
	case "", "on", "off":
	default:
		// Reject rather than ignore: a typo like "On" silently forcing
		// (or skipping) full simulation would be invisible in results.
		return fmt.Errorf("exp: unknown steady-state mode %q", cfg.SteadyState)
	}
	t := presets[cfg.Strategy]
	if t.stacked() {
		switch cfg.Placement {
		case PlacementSSDOnly, PlacementDRAMFirst, PlacementSplit:
		default:
			return fmt.Errorf("exp: unknown placement %q", cfg.Placement)
		}
	} else if cfg.Placement != "" {
		return fmt.Errorf("exp: placement %q only applies to the %s strategy", cfg.Placement, HybridOffload)
	}
	if !t.dram && cfg.DRAMCapacity != 0 {
		return fmt.Errorf("exp: DRAM capacity only applies to the %s and %s strategies", HybridOffload, CPUOffload)
	}
	if cfg.SplitRatio != 0 && (!t.stacked() || cfg.Placement != PlacementSplit) {
		// A silently ignored ratio would still defeat Sweep's dedup
		// (configs differing only in the dead knob measure twice).
		return fmt.Errorf("exp: split ratio only applies to the %s and %s strategies with %s placement", HybridOffload, OptimOffload, PlacementSplit)
	}
	if t.optim {
		switch core.OptimKind(cfg.OptimKind) {
		case core.OptimAdam, core.OptimSGD:
		default:
			return fmt.Errorf("exp: unknown optimizer kind %q", cfg.OptimKind)
		}
		switch cfg.Schedule {
		case ScheduleSync, ScheduleOverlap:
		default:
			return fmt.Errorf("exp: unknown optimizer schedule %q", cfg.Schedule)
		}
	} else {
		// Same dedup argument as SplitRatio: knobs the run would never
		// consult must be rejected, not ignored.
		if cfg.OptimKind != "" {
			return fmt.Errorf("exp: optimizer kind only applies to the %s strategy", OptimOffload)
		}
		if cfg.Schedule != "" {
			return fmt.Errorf("exp: optimizer schedule only applies to the %s strategy", OptimOffload)
		}
	}
	if !cfg.Faults.Empty() {
		if !t.nvme {
			return fmt.Errorf("exp: fault injection only applies to the %s, %s and %s strategies", SSDTrain, HybridOffload, OptimOffload)
		}
		devices := cfg.SSD.Count
		if devices == 0 {
			devices = PaperArray().Count
		}
		if err := cfg.Faults.Validate(devices); err != nil {
			return err
		}
	}
	return nil
}

// compile does the actual shape-dependent work.
func compile(key RunConfig) (*Plan, error) {
	mcfg := key.Model
	mcfg.Checkpoint = key.Strategy == Recompute

	if _, ok := presets[key.Strategy]; !ok {
		return nil, fmt.Errorf("exp: unknown strategy %q", key.Strategy)
	}

	cost := gpu.DefaultCostModel(key.GPU)
	tmpl, err := models.Template(mcfg, cost)
	if err != nil {
		return nil, err
	}
	return newPlan(key, tmpl), nil
}

// newPlan builds the plan of shape key around a graph template: the one
// constructor, so every Plan holds its device names and module plan.
func newPlan(key RunConfig, tmpl *autograd.Graph) *Plan {
	p := &Plan{
		shape:       key,
		tmpl:        tmpl,
		modules:     modulePlan(tmpl),
		weightBytes: tmpl.WeightBytes(),
		devNames:    make([]string, key.SSD.Count),
		footprint:   tmpl.Footprint(),
	}
	for i := range p.devNames {
		p.devNames[i] = fmt.Sprintf("nvme%d", i)
	}
	p.eligible, p.lastModule = eligibleBytes(p.modules.SavedBytes)
	return p
}

// Shape returns the plan's identity config (defaulted, cheap knobs
// zeroed).
func (p *Plan) Shape() RunConfig { return p.shape }

// EligibleBytes returns the per-step activation volume the pack hook
// would see (excluding weights).
func (p *Plan) EligibleBytes() units.Bytes { return p.eligible }

// LastModuleBytes returns the final block's saved-activation volume, the
// bytes the budget planner always keeps resident.
func (p *Plan) LastModuleBytes() units.Bytes { return p.lastModule }

// WeightBytes returns the per-GPU parameter volume.
func (p *Plan) WeightBytes() units.Bytes { return p.weightBytes }

// Execute runs one measurement under the plan on a fresh, single-use
// arena. cfg must match the plan's shape in everything except the cheap
// knobs listed on Plan; Session.Execute rejects mismatched configs and
// bad knobs rather than silently measuring the wrong model. The arena is
// built at size (see Session): its tables come sized from the plan's
// footprint and its event log from the steps the run simulates, so a
// first-seen shape pays for each once instead of regrowing it from
// empty. Callers that Execute one shape repeatedly should hold a Session
// (or route through a SessionPool) instead: a recycled arena produces
// byte-identical results at a fraction of the allocations.
func (p *Plan) Execute(cfg RunConfig) (*RunResult, error) {
	s, err := NewSession(p)
	if err != nil {
		return nil, err
	}
	return s.Execute(cfg)
}
