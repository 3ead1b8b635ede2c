package exp

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/core"
	"ssdtrain/internal/gds"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/pcie"
	"ssdtrain/internal/ssd"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// Session is a reusable execution arena bound to a Plan's shape: one
// simulated runtime, one instantiated graph, and one offload stack, all
// built once and reset in place between measurements. Session.Execute
// produces bit-for-bit the same RunResult a fresh Plan.Execute would —
// the two share one code path, and every substrate's Reset returns it to
// its just-constructed state — while recycling the arena's warm capacity
// (map buckets, tensor storages, record and reload pools, and every
// piece of per-step scratch).
//
// That recycling is SSDTrain §III's own rule — pre-allocate once, never
// re-malloc on the hot path — and on a warm session it is a contract:
// an untraced, unmaterialized simulated step allocates nothing, on every
// strategy, so a warm Execute allocates only the RunResult it returns
// (the struct, its PerStep and Tiers rows and its optimizer summary; the
// memory report and the counter snapshot are values inside the struct),
// whatever its step count. TestWarmExecuteAllocs pins it.
//
// A cold arena follows the same rule. NewSession builds every growable
// table at its size, from the plan's footprint: the allocator's live set
// and the lifetime table, the GDS registry, the tier stores, the cache's
// record maps, and the allocator's event log, for one step. One step is
// all the log holds: each step's events fold into the run's memory
// report before the next step runs, and the steps a converged run
// synthesizes repeat the last simulated one's (Allocator.Repeat), so the
// log does not grow with the run's length. So nothing regrows from
// empty. TestColdSessionAllocs pins it.
//
// The one exception is rare, on cold and warm arenas alike: entries churn
// through the per-storage side tables (Go maps) every step, and with the
// hash seed each clear draws, a table can now and then run out of room
// mid-run and grow. The grown table is kept. A traced run also grows
// the span log, and a materialized one fills payloads.
//
// A Session is single-owner: it must not run two Executes concurrently.
// Use a SessionPool to share arenas across sweep workers. The cheap knobs
// listed on Plan may differ freely between calls on one session;
// everything else must match the plan's shape.
type Session struct {
	plan    *Plan
	rt      *autograd.Runtime
	graph   *autograd.Graph
	weights []*tensor.Tensor
	exec    *autograd.Executor

	// cache and offloader are nil for the strategies that install no
	// hooks (no-offload, recompute).
	cache     *core.TensorCache
	offloader *core.TieredOffloader
	// ssdTier/cpuTier are the arena's rungs, built per the strategy's
	// tier preset; Execute assembles the per-call stack from them (a zero
	// DRAM grant excludes the DRAM rung of a DRAM+NVMe stack).
	ssdTier *core.SSDOffloader
	cpuTier *core.CPUOffloader
	// stack and plans are the per-call tier assembly and budget-planner
	// scratch; plans is an array because an arena has at most two
	// activation rungs, so even a single-use arena plans without
	// allocating. The planner derates plans in place.
	stack []core.Tier
	plans [2]core.TierPlan

	// optim and its rungs exist only when the strategy's preset has
	// optimizer rungs (OptimOffload): the offloaded-optimizer pipeline's
	// DRAM and NVMe tiers are wired to the arena's PCIe links and NVMe
	// array, which count their bytes (the devices' wear counters
	// included), but keep their own queues, which alone time their
	// transfers, so optimizer traffic never delays activation offload in
	// simulated time; only the planner's reserves model that contention.
	// They also keep their own block stores and — for NVMe — an empty GDS
	// registry, so optimizer shuttles ride the host-mediated bounce path
	// as ZeRO-Offload's CPU-owned update prescribes.
	optim     *core.OptimOffloader
	optimDRAM *core.CPUOffloader
	optimNVMe *core.SSDOffloader

	// windows is the per-step window scratch the allocator fills with
	// each step's memory peaks.
	windows []gpu.Window
	// steady is the arena's steady-state detector, reset by every run
	// that may extrapolate.
	steady steadyTracker
}

// NewSession builds an execution arena for the plan. The arena is fully
// reset at the start of every Execute, so a freshly built session and a
// reused one run the identical code path.
func NewSession(p *Plan) (*Session, error) {
	shape := p.shape
	preset, ok := presets[shape.Strategy]
	if !ok {
		return nil, fmt.Errorf("exp: unknown strategy %q", shape.Strategy)
	}
	// Every growable table is sized once from the plan's footprint, so
	// the first step fills room instead of regrowing it from empty.
	fp := p.footprint
	rt := autograd.NewRuntime(shape.GPU, fp)
	graph := p.tmpl.CloneWithFreshWeights()
	s := &Session{plan: p, rt: rt, graph: graph}

	var hooks autograd.Hooks = autograd.NoHooks{}
	if preset.dram || preset.nvme {
		var host, link *pcie.Link
		var array *ssd.Array
		if preset.dram {
			// DRAM rung over the host DMA path. A DRAM+NVMe arena builds it
			// even though zero-grant calls exclude it from the stack: the
			// rung is wiring, and an unused tier schedules nothing.
			host = pcie.NewLink(rt.Rec, preset.hostLink, pcie.DefaultGen4x16())
			s.cpuTier = core.NewCPUOffloader(rt.Rec, "/dev/shm", host, 0)
			s.cpuTier.Presize(fp.Saved)
		}
		if preset.nvme {
			// NVMe rung over the GDS peer-to-peer path: striped device
			// array, malloc-hook registry. Devices are built with the base
			// spec; Execute re-derates them per call's bandwidth share.
			link = pcie.NewLink(rt.Rec, "pcie0", pcie.DefaultGen4x16())
			array = ssd.NewArray("/mnt/md1", shape.SSD.Stripe, ssd.NewDevices(rt.Rec, shape.SSD.Spec, p.devNames...)...)
			// The malloc hook registers every allocation, so the registry
			// mirrors the allocator's live set unless GDS is off.
			live := fp.Live
			if shape.DisableGDS {
				live = 0
			}
			registry := gds.NewRegistry(live)
			registry.SetRecorder(rt.Rec)
			hook := gds.NewMallocHook(registry)
			hook.Enabled = !shape.DisableGDS
			rt.Alloc.AddHook(hook)
			s.ssdTier = core.NewSSDOffloader(rt.Rec, "/mnt/md1", link, array, registry)
			s.ssdTier.Presize(fp.Saved)
		}
		if preset.optim {
			// Optimizer rungs: own queues and block stores over the shared
			// physical paths. The NVMe rung's registry stays empty, so its
			// transfers take the bounce (host-mediated) path at the derated
			// rate, and SharedArray keeps the steady-state fast path from
			// double-advancing the member devices' wear counters.
			s.optimDRAM = core.NewCPUOffloader(rt.Rec, "optim-dram", host, 0)
			s.optimNVMe = core.NewSSDOffloader(rt.Rec, "optim-nvme", link, array, gds.NewRegistry(0))
			s.optimNVMe.SharedArray = true
			// Each weight's state, parameter and gradient blocks land on
			// one of the two rungs; the other never makes its table.
			s.optimDRAM.Presize(3 * fp.Weights)
			s.optimNVMe.Presize(3 * fp.Weights)
			s.optim = core.NewOptimOffloader(rt.Rec, s.optimDRAM, s.optimNVMe)
		}
		var tiers []core.Tier
		if s.cpuTier != nil {
			tiers = append(tiers, s.cpuTier)
		}
		if s.ssdTier != nil {
			tiers = append(tiers, s.ssdTier)
		}
		s.offloader = core.NewTieredOffloader(1, tiers...)
		s.offloader.SetRecorder(rt.Rec)
		s.offloader.Presize(fp.Saved)
		s.cache = core.NewTensorCache(core.Config{
			Runtime:         rt,
			Offloader:       s.offloader,
			HostCost:        shape.HostCost,
			PrefetchAhead:   shape.PrefetchAhead,
			KeepLastModules: max(shape.KeepLastModules, 0), // -1 (canonical ablation) → keep nothing
			Verify:          shape.Verify,
			NoForwarding:    shape.NoForwarding,
			NoDedup:         shape.NoDedup,
			Footprint:       fp,
		})
		hooks = s.cache
	}

	// The event log gets room for the weights and a first step: every
	// storage the footprint counts allocated and freed in each
	// micro-batch, plus a reload buffer per saved tensor when the arena
	// offloads, plus the gradient buffers. That is all the room a run
	// needs: runMeasurement folds each step's events out of the log
	// before the next step runs.
	reloads := 0
	if s.cache != nil {
		reloads = fp.Saved
	}
	rt.Alloc.Reserve(2*fp.Weights + 2*(fp.Allocs+reloads)*shape.MicroBatches)

	exec, err := autograd.NewExecutor(rt, graph, hooks, autograd.ExecConfig{
		MicroBatches: shape.MicroBatches,
		UpdateCost: func(w *tensor.Tensor) time.Duration {
			// The FP16 training update pipeline touches each parameter
			// and gradient several times per step: gradient unscale +
			// clip (2 passes over grads), the loss-scale overflow check
			// (1 pass), and the SGD update itself (read w, read g,
			// write w) — about 8 parameter-sized passes total.
			return rt.Cost.MemoryBound(8 * w.Bytes())
		},
		AccumCost: func(w *tensor.Tensor) time.Duration {
			return rt.Cost.MemoryBound(3 * w.Bytes())
		},
		Materialize: shape.Materialize,
	})
	if err != nil {
		return nil, err
	}
	s.exec = exec
	s.weights = exec.Weights()
	s.steady = steadyTracker{rt: rt, off: s.offloader, optim: s.optim}
	return s, nil
}

// Plan returns the plan the session's arena is bound to.
func (s *Session) Plan() *Plan { return s.plan }

// Execute runs one measurement on the session's arena, resetting it in
// place first. cfg must match the session plan's shape in everything
// except the cheap knobs; mismatched configs are rejected rather than
// silently measuring the wrong model. The result is byte-identical to a
// fresh Plan.Execute of the same config.
func (s *Session) Execute(cfg RunConfig) (*RunResult, error) {
	cfg = cfg.withDefaults()
	if err := validateKnobs(cfg); err != nil {
		return nil, err
	}
	if key := shapeKey(cfg); key != s.plan.shape {
		return nil, fmt.Errorf("exp: config shape %+v does not match compiled plan %+v", key, s.plan.shape)
	}
	p := s.plan

	// Arm (or silence) the flight recorder before anything touches the
	// arena: a traced run records from the executor's weight
	// re-registration at t=0 onward, exactly what a fresh arena's first
	// traced run sees. The recorder's track table survives Reset, so a
	// reused arena records onto the same track ids as a fresh one.
	if cfg.Trace {
		s.rt.Rec.Reset()
		s.rt.Rec.Enable()
	} else {
		s.rt.Rec.Disable()
	}

	// Rewind the arena: virtual time, allocator, counters, weights. The
	// weight storages are re-zeroed in place — the cheap alternative to
	// CloneWithFreshWeights — and restamped below in the same order the
	// clone's fresh storages would be.
	s.rt.Reset()
	for _, w := range s.weights {
		w.Storage().ResetForReuse()
	}

	res := &RunResult{Config: cfg, WeightBytes: p.weightBytes, EligibleBytes: p.eligible}

	if s.cache != nil {
		// Rebind the offload stack to this call's knobs: rederated NVMe
		// spec, this call's DRAM grant, this call's DRAM share.
		if s.optimNVMe != nil || s.ssdTier != nil {
			spec := cfg.SSD.Spec
			if sh := cfg.SSDBandwidthShare; sh > 0 && sh < 1 {
				spec.SeqWrite = units.Bandwidth(float64(spec.SeqWrite) * sh)
				spec.SeqRead = units.Bandwidth(float64(spec.SeqRead) * sh)
			}
			// The optimizer rung resets first: both rungs reset the shared
			// link/array/devices idempotently with the same derated spec, and
			// resetting the activation tier last keeps its Arm the binding
			// fault installation.
			if s.optimNVMe != nil {
				s.optimNVMe.Reset(spec)
			}
			if s.ssdTier != nil {
				s.ssdTier.Reset(spec)
				// Always arm (or, for the empty spec, disarm): a reused arena
				// whose previous run injected faults must not carry them over.
				s.ssdTier.Arm(cfg.Faults)
			}
		}
		// The offloaded optimizer claims its slice of the DRAM grant first
		// (states are hot every step; the ZeRO-Offload posture); activations
		// get whatever pinned memory remains.
		actDRAM := cfg.DRAMCapacity
		var optimPlaced core.OptimPlacement
		if s.optim != nil {
			s.optimDRAM.Reset(0)
			s.optim.Reset(core.OptimConfig{
				Kind:      core.OptimKind(cfg.OptimKind),
				DRAMGrant: cfg.DRAMCapacity,
			})
			optimPlaced = s.optim.Register(s.weights)
			actDRAM -= optimPlaced.DRAMBytes
		}
		if s.cpuTier != nil {
			s.cpuTier.Reset(actDRAM)
		}
		// The DRAM rung joins the stack when it is the only rung, or when
		// grant is left after the optimizer states: a zero grant — or one
		// the optimizer consumed entirely — degenerates DRAM+NVMe to
		// NVMe-only. Each rung drains over its own PCIe path.
		stack := s.stack[:0]
		if s.cpuTier != nil && (s.ssdTier == nil || actDRAM > 0) {
			stack = append(stack, s.cpuTier)
		}
		if s.ssdTier != nil {
			stack = append(stack, s.ssdTier)
		}
		s.stack = stack
		s.offloader.Reset(dramShare(cfg), stack...)

		budget := cfg.Budget
		if budget == 0 {
			budget = core.PlanHierarchyBudget(p.modules, s.offloader.AppendPlans(s.plans[:0], optimPlaced))
		}
		res.PlannedBudget = budget

		// The cache restarts its stamp clock; re-registering the weights
		// replays the stamps their fresh-clone counterparts would get.
		// (Transposed weight views share their parameter's storage, and
		// stamps live on the storage, so registering the parameters covers
		// every view the executor packs.)
		s.cache.Reset(budget)
		s.cache.RegisterWeights(s.weights)
	}

	s.exec.Reset()
	if s.optim != nil {
		s.exec.ConfigureOptim(s.optim, cfg.Schedule == ScheduleOverlap)
	}
	if err := s.runMeasurement(cfg, res); err != nil {
		// Leave no armed recorder behind: the next (possibly untraced)
		// Execute on this arena must not record.
		s.rt.Rec.Disable()
		return nil, err
	}
	if cfg.Trace {
		// Fault windows are emitted after the run (they cannot perturb
		// it), clamped to the measured horizon so attribution sums stay
		// within the run.
		if s.ssdTier != nil {
			s.ssdTier.EmitFaultSpans(res.Measured.End)
		}
		res.Trace = s.rt.Rec.Snapshot()
		s.rt.Rec.Disable()
	}
	return res, nil
}

// runMeasurement drives the warmup + measurement loop on the prepared
// arena and fills in the result — the single code path behind both fresh
// and session-reused Executes.
func (s *Session) runMeasurement(cfg RunConfig, res *RunResult) error {
	rt, exec, cache, off, optim := s.rt, s.exec, s.cache, s.offloader, s.optim
	res.PerStep = make([]StepMetrics, 0, cfg.Warmup+cfg.Steps)

	// The per-step signature detector (see steady.go) runs only when the
	// run may extrapolate: untraced, fault-free, with the knob on — a
	// traced run can't synthesize spans, and an armed fault spec could
	// trigger inside the extrapolated region.
	var tracker *steadyTracker
	if cfg.SteadyState != "off" && !cfg.Trace && cfg.Faults.Empty() {
		tracker = &s.steady
		tracker.reset()
	}

	// Each step's window folds into the allocator's running report just
	// before the next step runs: every event the next step records lands
	// at or after its start, which is this step's end. So the event log
	// holds about one step whatever the run's length, and NewSession's
	// one-step reservation is its only sizing. The last simulated step
	// stays in the log, for Finalize or, as the exemplar, for Repeat.
	// The windows, simulated and synthesized, number Warmup + Steps, so
	// their scratch never regrows mid-run.
	s.windows = slices.Grow(s.windows[:0], cfg.Warmup+cfg.Steps)
	wins := s.windows
	simulated := 0
	converged := false
	for i := 0; i < cfg.Warmup+cfg.Steps; i++ {
		if i > 0 {
			rt.Alloc.FoldWindow(&wins[i-1])
		}
		if tracker != nil {
			tracker.beginStep()
		}
		sr := exec.Run()
		m := StepMetrics{
			Stats:      sr.Stats,
			Start:      sr.Start,
			End:        sr.End,
			HostTime:   sr.HostTime,
			UpdateTime: sr.UpdateTime,
		}
		if cache != nil {
			if err := cache.Err(); err != nil {
				return fmt.Errorf("exp: offload failed in step %d: %w", i+1, err)
			}
			m.IO = cache.LastStep()
			m.Stats.OffloadedBytes = m.IO.Offloaded
			m.Stats.ReloadedBytes = m.IO.Reloaded
			m.Stats.ForwardedBytes = m.IO.Forwarded
		}
		res.PerStep = append(res.PerStep, m)
		wins = append(wins, gpu.Window{Start: m.Start, End: m.End})
		measured := i >= cfg.Warmup
		if measured {
			simulated++
		}
		// Warm-up steps fold too, so the first measured step's deltas
		// cover exactly one step; only measured steps can match.
		if tracker != nil && tracker.fold(m, measured) {
			converged = true
			break
		}
	}

	res.SteadyState.SimulatedSteps = simulated
	// unfolded is the windows Finalize fills: the last simulated step's,
	// unless Repeat folds it with its repeats.
	unfolded := wins[len(wins)-1:]
	switch {
	case converged:
		// The exemplar (last simulated) step is one exact cycle; synthesize
		// the remaining steps from it. The simulator's steps are contiguous
		// in virtual time, so the cycle period is the exemplar's duration.
		// The allocator repeats the exemplar's memory events over the
		// synthesized steps' windows and folds them all.
		r := cfg.Steps - simulated
		res.SteadyState.ExtrapolatedSteps = r
		if r > 0 {
			ex := res.PerStep[len(res.PerStep)-1]
			period := ex.End - ex.Start
			if off != nil {
				off.ExtrapolateCycles(int64(r))
			}
			if optim != nil {
				optim.ExtrapolateCycles(int64(r))
			}
			tracker.extrapolateCounters(int64(r))
			for j := 1; j <= r; j++ {
				m := ex
				m.Start += time.Duration(j) * period
				m.End += time.Duration(j) * period
				res.PerStep = append(res.PerStep, m)
				wins = append(wins, gpu.Window{Start: m.Start, End: m.End})
			}
			rt.Alloc.Repeat(tracker.allocMark, wins[len(wins)-r-1:])
			unfolded = nil
		}
		steadyGlobal.hits.Add(1)
		steadyGlobal.extrapolated.Add(uint64(r))
	case cfg.Trace:
		res.SteadyState.Fallback = steadyFallbackTrace
		steadyGlobal.fallbackTrace.Add(1)
	case !cfg.Faults.Empty():
		res.SteadyState.Fallback = steadyFallbackFaults
		steadyGlobal.fallbackFaults.Add(1)
	case cfg.SteadyState == "off":
		res.SteadyState.Fallback = steadyFallbackOff
		steadyGlobal.fallbackOff.Add(1)
	default:
		res.SteadyState.Fallback = steadyFallbackNoConv
		steadyGlobal.fallbackNoConv.Add(1)
	}

	res.Mem = rt.Alloc.Finalize(unfolded)
	for i, w := range wins {
		m := &res.PerStep[i]
		m.ActPeak, m.Stats.ActivationPeak = w.Act, w.Act
		m.TotalPeak, m.Stats.TotalPeak = w.Total, w.Total
	}
	res.Measured = res.PerStep[len(res.PerStep)-1]
	if cache != nil && off != nil {
		res.SSDPeak = off.PeakResident()
		n := len(off.Tiers())
		if optim != nil {
			n += len(optim.Tiers())
		}
		res.Tiers = appendTierUsage(make([]TierUsage, 0, n), off.Tiers())
	}
	if optim != nil {
		// Optimizer rungs report after the activation rungs, and the
		// pipeline summary rides alongside them.
		res.Tiers = appendTierUsage(res.Tiers, optim.Tiers())
		pl := optim.Placement()
		res.Optim = &OptimUsage{
			Kind:         cfg.OptimKind,
			Schedule:     cfg.Schedule,
			StateBytes:   pl.StateBytes,
			DRAMResident: pl.DRAMBytes,
			NVMeResident: pl.NVMeBytes,
			ShuttleWrite: pl.DRAMWritePerStep + pl.NVMeWritePerStep,
			ShuttleRead:  pl.DRAMReadPerStep + pl.NVMeReadPerStep,
			UpdateBusy:   optim.UpdateBusy(),
		}
	}
	// Snapshot the counters: the live set belongs to the arena and is
	// reset by the next Execute; the result keeps its own copy.
	res.Counters = rt.Counters
	return nil
}

// appendTierUsage appends one usage row per tier to dst.
func appendTierUsage(dst []TierUsage, tiers []core.Tier) []TierUsage {
	for _, t := range tiers {
		dst = append(dst, TierUsage{
			Name:     t.Name(),
			Kind:     t.Kind(),
			Written:  t.BytesWritten(),
			Read:     t.BytesRead(),
			Peak:     t.PeakResident(),
			Capacity: t.Capacity(),
		})
	}
	return dst
}

// dramShare maps the placement knobs to the tier stack's DRAM share, in
// this one place: ssd-only is 0, split is its ratio, and dram-first is 1.
// The single-rung strategies leave the knob unset and take 1; on a
// one-rung stack every share routes to rung 0.
func dramShare(cfg RunConfig) float64 {
	switch cfg.Placement {
	case PlacementSSDOnly:
		return 0
	case PlacementSplit:
		return cfg.SplitRatio
	}
	return 1
}

// DefaultMaxIdleSessions bounds how many idle arenas a SessionPool
// retains in total; a release into a full pool evicts the oldest idle
// arena, which also ages out sessions for plans the shared plan cache
// has since evicted.
const DefaultMaxIdleSessions = 32

// SessionPool shares Sessions between goroutines: Execute compiles (via
// the shared plan cache), borrows an arena for the config's plan — or
// builds one — runs, and returns the arena for the next caller. A sweep
// routed through a pool pays arena construction at most once per (plan,
// concurrent worker) instead of once per point, and the fleet profiler's
// cache-miss measurements recycle arenas across its whole lifetime.
type SessionPool struct {
	mu   sync.Mutex
	free map[*Plan][]*Session
	// spare is the array of the last free list emptied, its slots
	// cleared, for the next plan that gets an idle arena: an emptied list
	// leaves the map, so the pool keeps no plan reachable that has no idle
	// arena, and a run that pops a plan's one idle arena and releases it
	// again reuses the array instead of allocating a new one.
	spare []*Session
	// fifo records the release order of idle sessions (one plan entry per
	// idle session, oldest first), so a full pool evicts its oldest arena
	// rather than refusing the newest. Eviction is what keeps a long-lived
	// pool from pinning arenas for plans the shared plan cache has since
	// evicted and re-compiled to new pointers — stale entries age out as
	// fresh releases come in, and emptied map keys are deleted.
	fifo []*Plan
	// maxIdle bounds total retained arenas across all plans.
	maxIdle int
	// hits/misses/evictions are the pool's lifetime counters: acquires
	// served by an idle arena, acquires that had to build one, and idle
	// arenas dropped to make room. Snapshotted by Stats.
	hits, misses, evictions int64
}

// SessionPoolStats is a point-in-time snapshot of a pool's counters —
// the observability the serve /metrics endpoint surfaces so "the arenas
// are being recycled" is a measured fact rather than an assumption.
type SessionPoolStats struct {
	// Hits counts Execute calls served by a recycled idle arena.
	Hits int64 `json:"hits"`
	// Misses counts Execute calls that built a fresh arena.
	Misses int64 `json:"misses"`
	// Evictions counts idle arenas dropped because the pool was full.
	Evictions int64 `json:"evictions"`
	// Idle is the number of arenas currently retained.
	Idle int `json:"idle"`
}

// HitRate returns Hits over all acquires, or 0 before the first one.
func (s SessionPoolStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Stats snapshots the pool's hit/miss/eviction counters.
func (sp *SessionPool) Stats() SessionPoolStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return SessionPoolStats{
		Hits:      sp.hits,
		Misses:    sp.misses,
		Evictions: sp.evictions,
		Idle:      len(sp.fifo),
	}
}

// NewSessionPool creates a pool retaining at most maxIdle idle sessions
// (0 or negative uses DefaultMaxIdleSessions).
func NewSessionPool(maxIdle int) *SessionPool {
	if maxIdle <= 0 {
		maxIdle = DefaultMaxIdleSessions
	}
	return &SessionPool{free: make(map[*Plan][]*Session), maxIdle: maxIdle}
}

// Execute runs one measurement on a pooled arena: Compile (hitting the
// shared plan cache), borrow or build a session, Execute, return the
// session. Results are byte-identical to Run's for any pool state. The
// session is returned to the pool even when the run errors — Execute
// fully resets the arena on entry, so a failed run cannot leak state
// into the next one.
func (sp *SessionPool) Execute(cfg RunConfig) (*RunResult, error) {
	plan, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	s, err := sp.acquire(plan)
	if err != nil {
		return nil, err
	}
	res, err := s.Execute(cfg)
	sp.release(plan, s)
	return res, err
}

// acquire pops an idle session for the plan or builds a new one.
func (sp *SessionPool) acquire(p *Plan) (*Session, error) {
	sp.mu.Lock()
	if ss := sp.free[p]; len(ss) > 0 {
		sp.hits++
		s := ss[len(ss)-1]
		ss[len(ss)-1] = nil
		sp.setFree(p, ss[:len(ss)-1])
		// Drop one fifo entry for this plan (the newest, matching the
		// popped session; any entry works — they are interchangeable).
		// Delete clears the slot it vacates, so the fifo's array keeps no
		// plan reachable after its arenas left the pool.
		for i := len(sp.fifo) - 1; i >= 0; i-- {
			if sp.fifo[i] == p {
				sp.fifo = slices.Delete(sp.fifo, i, i+1)
				break
			}
		}
		sp.mu.Unlock()
		return s, nil
	}
	sp.misses++
	sp.mu.Unlock()
	return NewSession(p)
}

// release returns a session to the pool, evicting the oldest idle arena
// when the pool is full.
func (sp *SessionPool) release(p *Plan, s *Session) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.fifo) >= sp.maxIdle {
		old := sp.fifo[0]
		sp.fifo = slices.Delete(sp.fifo, 0, 1)
		sp.evictions++
		if ss := sp.free[old]; len(ss) > 0 {
			copy(ss, ss[1:])
			ss[len(ss)-1] = nil
			sp.setFree(old, ss[:len(ss)-1])
		}
	}
	ss := sp.free[p]
	if ss == nil {
		ss, sp.spare = sp.spare, nil
	}
	sp.free[p] = append(ss, s)
	sp.fifo = append(sp.fifo, p)
}

// setFree stores ss as plan p's free list, whose vacated slots the
// caller has cleared. An empty list leaves the map and becomes the spare.
func (sp *SessionPool) setFree(p *Plan, ss []*Session) {
	if len(ss) > 0 {
		sp.free[p] = ss
		return
	}
	delete(sp.free, p)
	sp.spare = ss
}

// Idle reports how many arenas the pool currently retains.
func (sp *SessionPool) Idle() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.fifo)
}
