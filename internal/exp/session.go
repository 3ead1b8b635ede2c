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
// (map buckets, tensor storages, record and reload pools),
// which is what makes repeated Execute across a sweep or a fleet profile
// nearly allocation-free (SSDTrain §III's own rule: pre-allocate once,
// never re-malloc on the hot path).
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
	// allocating.
	stack []core.Tier
	plans [2]core.TierPlan

	// optim and its rungs exist only when the strategy's preset has
	// optimizer rungs (OptimOffload): the offloaded-optimizer pipeline's
	// DRAM and NVMe tiers share the arena's PCIe links and NVMe array
	// (optimizer traffic contends with activation offload and lands in
	// the same wear ledger) but keep their own queues, block stores, and
	// — for NVMe — an empty GDS registry, so optimizer shuttles ride the
	// host-mediated bounce path as ZeRO-Offload's CPU-owned update
	// prescribes.
	optim     *core.OptimOffloader
	optimDRAM *core.CPUOffloader
	optimNVMe *core.SSDOffloader

	// windows is the per-step window scratch the allocator fills with
	// each step's memory peaks.
	windows []gpu.Window
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
	rt := autograd.NewRuntime(shape.GPU)
	graph := p.tmpl.CloneWithFreshWeights()
	s := &Session{plan: p, rt: rt, graph: graph, weights: graph.Weights()}

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
		}
		if preset.nvme {
			// NVMe rung over the GDS peer-to-peer path: striped device
			// array, malloc-hook registry. Devices are built with the base
			// spec; Execute re-derates them per call's bandwidth share.
			link = pcie.NewLink(rt.Rec, "pcie0", pcie.DefaultGen4x16())
			devs := make([]*ssd.Device, shape.SSD.Count)
			for i := range devs {
				devs[i] = ssd.NewDevice(rt.Rec, p.devName(i), shape.SSD.Spec)
			}
			array = ssd.NewArray("/mnt/md1", shape.SSD.Stripe, devs...)
			registry := gds.NewRegistry()
			registry.SetRecorder(rt.Rec)
			hook := gds.NewMallocHook(registry)
			hook.Enabled = !shape.DisableGDS
			rt.Alloc.AddHook(hook)
			s.ssdTier = core.NewSSDOffloader(rt.Rec, "/mnt/md1", link, array, registry)
		}
		if preset.optim {
			// Optimizer rungs: own queues and block stores over the shared
			// physical paths. The NVMe rung's registry stays empty, so its
			// transfers take the bounce (host-mediated) path at the derated
			// rate, and SharedArray keeps the steady-state fast path from
			// double-advancing the member devices' wear counters.
			s.optimDRAM = core.NewCPUOffloader(rt.Rec, "optim-dram", host, 0)
			s.optimNVMe = core.NewSSDOffloader(rt.Rec, "optim-nvme", link, array, gds.NewRegistry())
			s.optimNVMe.SharedArray = true
			s.optim = core.NewOptimOffloader(rt.Rec, s.optimDRAM, s.optimNVMe)
		}
		var tiers []core.Tier
		if s.cpuTier != nil {
			tiers = append(tiers, s.cpuTier)
		}
		if s.ssdTier != nil {
			tiers = append(tiers, s.ssdTier)
		}
		s.offloader = core.NewTieredOffloader(nil, tiers...)
		s.offloader.SetRecorder(rt.Rec)
		s.cache = core.NewTensorCache(core.Config{
			Runtime:         rt,
			Offloader:       s.offloader,
			HostCost:        shape.HostCost,
			PrefetchAhead:   shape.PrefetchAhead,
			KeepLastModules: max(shape.KeepLastModules, 0), // -1 (canonical ablation) → keep nothing
			Verify:          shape.Verify,
			NoForwarding:    shape.NoForwarding,
			NoDedup:         shape.NoDedup,
		})
		hooks = s.cache
	}

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
		// spec, this call's DRAM grant, this call's placement policy.
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
		s.offloader.Reset(placementPolicy(cfg), stack...)

		budget := cfg.Budget
		if budget == 0 {
			key := budgetKey{
				share:     cfg.SSDBandwidthShare,
				placement: cfg.Placement,
				dramCap:   cfg.DRAMCapacity,
				ratio:     cfg.SplitRatio,
				optim:     cfg.OptimKind,
			}
			budget = p.plannedBudget(key, tierPlans(s.plans[:0], cfg, stack, optimPlaced))
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
	runStep := func() (StepMetrics, error) {
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
				return m, fmt.Errorf("exp: offload failed in step %d: %w", len(res.PerStep)+1, err)
			}
			m.IO = cache.LastStep()
			m.Stats.OffloadedBytes = m.IO.Offloaded
			m.Stats.ReloadedBytes = m.IO.Reloaded
			m.Stats.ForwardedBytes = m.IO.Forwarded
		}
		res.PerStep = append(res.PerStep, m)
		return m, nil
	}

	// The per-step signature detector (see steady.go) runs only when the
	// run may extrapolate: untraced, fault-free, with the knob on — a
	// traced run can't synthesize spans, and an armed fault spec could
	// trigger inside the extrapolated region.
	var tracker *steadyTracker
	if cfg.SteadyState != "off" && !cfg.Trace && cfg.Faults.Empty() {
		tracker = newSteadyTracker(rt, off, optim)
	}

	for i := 0; i < cfg.Warmup; i++ {
		if tracker != nil {
			tracker.beginStep()
		}
		m, err := runStep()
		if err != nil {
			return err
		}
		if tracker != nil {
			tracker.fold(m, false)
		}
	}
	simulated := 0
	converged := false
	for i := 0; i < cfg.Steps; i++ {
		if tracker != nil {
			tracker.beginStep()
		}
		m, err := runStep()
		if err != nil {
			return err
		}
		simulated++
		if tracker == nil {
			continue
		}
		if tracker.fold(m, true) {
			converged = true
			break
		}
	}

	res.SteadyState.SimulatedSteps = simulated
	switch {
	case converged:
		// The exemplar (last simulated) step is one exact cycle; synthesize
		// the remaining steps from it. The simulator's steps are contiguous
		// in virtual time, so the cycle period is the exemplar's duration.
		r := cfg.Steps - simulated
		res.SteadyState.ExtrapolatedSteps = r
		if r > 0 {
			ex := res.PerStep[len(res.PerStep)-1]
			period := ex.End - ex.Start
			rt.Alloc.ReplicateTail(tracker.allocMark, r, period)
			if off != nil {
				off.ExtrapolateCycles(int64(r))
			}
			if optim != nil {
				optim.ExtrapolateCycles(int64(r))
			}
			tracker.extrapolateCounters(int64(r))
			res.PerStep = slices.Grow(res.PerStep, r)
			for j := 1; j <= r; j++ {
				m := ex
				m.Start += time.Duration(j) * period
				m.End += time.Duration(j) * period
				res.PerStep = append(res.PerStep, m)
			}
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

	wins := slices.Grow(s.windows[:0], len(res.PerStep))
	for _, m := range res.PerStep {
		wins = append(wins, gpu.Window{Start: m.Start, End: m.End})
	}
	s.windows = wins
	res.Mem = rt.Alloc.Finalize(wins)
	for i, w := range wins {
		m := &res.PerStep[i]
		m.ActPeak, m.Stats.ActivationPeak = w.Act, w.Act
		m.TotalPeak, m.Stats.TotalPeak = w.Total, w.Total
	}
	res.Measured = res.PerStep[len(res.PerStep)-1]
	if cache != nil && off != nil {
		res.SSDPeak = off.PeakResident()
		for _, t := range off.Tiers() {
			res.Tiers = append(res.Tiers, TierUsage{
				Name:     t.Name(),
				Kind:     t.Kind(),
				Written:  t.BytesWritten(),
				Read:     t.BytesRead(),
				Peak:     t.PeakResident(),
				Capacity: t.Capacity(),
			})
		}
	}
	if optim != nil {
		// Optimizer rungs report after the activation rungs, and the
		// pipeline summary rides alongside them.
		for _, t := range optim.Tiers() {
			res.Tiers = append(res.Tiers, TierUsage{
				Name:     t.Name(),
				Kind:     t.Kind(),
				Written:  t.BytesWritten(),
				Read:     t.BytesRead(),
				Peak:     t.PeakResident(),
				Capacity: t.Capacity(),
			})
		}
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
	res.Counters = rt.Counters.Clone()
	return nil
}

// placementPolicy maps the placement knob to the stack's routing
// policy. On a one-rung stack every policy picks rung 0, so the
// single-rung strategies take the unset knob's dram-first.
func placementPolicy(cfg RunConfig) core.PlacementPolicy {
	switch cfg.Placement {
	case PlacementSSDOnly:
		return core.SSDOnlyPolicy()
	case PlacementSplit:
		return core.SplitPolicy(cfg.SplitRatio)
	default:
		return core.DRAMFirstPolicy()
	}
}

// tierPlans appends the planner's view of the live tier stack to dst:
// the ssd-only placement plans against the NVMe rung alone, split
// placement caps the DRAM rung's share at the split ratio. A zero split
// ratio routes every byte to NVMe at runtime, so the DRAM rung must drop
// out of the plan too (TierPlan.Fraction 0 means "no share cap", not
// "nothing"). The optimizer placement's per-step shuttle volumes become
// per-rung reserves, derating the activation plan's bandwidths by the
// competing traffic; the zero placement leaves the plans untouched.
func tierPlans(dst []core.TierPlan, cfg RunConfig, tiers []core.Tier, optim core.OptimPlacement) []core.TierPlan {
	dramless := cfg.Placement == PlacementSSDOnly ||
		(cfg.Placement == PlacementSplit && cfg.SplitRatio == 0)
	for _, t := range tiers {
		if dramless && t.Kind() != core.TierNVMe {
			continue
		}
		tp := core.TierPlan{
			WriteBandwidth: t.WriteBandwidth(),
			ReadBandwidth:  t.ReadBandwidth(),
			Capacity:       t.Capacity(),
		}
		switch t.Kind() {
		case core.TierDRAM:
			if cfg.Placement == PlacementSplit {
				tp.Fraction = cfg.SplitRatio
			}
			tp.WriteReserve = optim.DRAMWritePerStep
			tp.ReadReserve = optim.DRAMReadPerStep
		case core.TierNVMe:
			tp.WriteReserve = optim.NVMeWritePerStep
			tp.ReadReserve = optim.NVMeReadPerStep
		}
		dst = append(dst, tp)
	}
	return dst
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
		if len(ss) == 1 {
			delete(sp.free, p)
		} else {
			sp.free[p] = ss[:len(ss)-1]
		}
		// Drop one fifo entry for this plan (the newest, matching the
		// popped session; any entry works — they are interchangeable).
		for i := len(sp.fifo) - 1; i >= 0; i-- {
			if sp.fifo[i] == p {
				sp.fifo = append(sp.fifo[:i], sp.fifo[i+1:]...)
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
		sp.fifo = sp.fifo[1:]
		sp.evictions++
		if ss := sp.free[old]; len(ss) > 0 {
			if len(ss) == 1 {
				delete(sp.free, old)
			} else {
				copy(ss, ss[1:])
				ss[len(ss)-1] = nil
				sp.free[old] = ss[:len(ss)-1]
			}
		}
	}
	sp.free[p] = append(sp.free[p], s)
	sp.fifo = append(sp.fifo, p)
}

// Idle reports how many arenas the pool currently retains.
func (sp *SessionPool) Idle() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.fifo)
}

// BatchResult is one ExecuteBatch outcome: exactly one of Result and Err
// is set.
type BatchResult struct {
	Result *RunResult
	Err    error
}

// ExecuteBatch runs several measurements that share one plan shape on a
// single borrowed arena: one Compile (via the shared plan cache), one
// acquire, len(cfgs) Executes, one release. This is the micro-batching
// primitive behind the serve layer's group-commit batcher — compatible
// cheap-knob requests that wait for a worker together pay arena traffic
// once instead of once each. Failures are per-item: a config that fails
// validation, mismatches the batch's shape, or errors mid-simulation
// reports through its own slot without disturbing its neighbours
// (Execute fully resets the arena on entry, so an errored run cannot
// leak state into the next). Results are byte-identical to per-config
// Plan.Execute calls.
func (sp *SessionPool) ExecuteBatch(cfgs []RunConfig) []BatchResult {
	out := make([]BatchResult, len(cfgs))
	var plan *Plan
	var sess *Session
	for i, cfg := range cfgs {
		if sess == nil {
			// The first config that compiles establishes the batch's plan
			// and arena. Later items are not recompiled: Session.Execute
			// validates their knobs and shape itself, so a mismatched item
			// errors individually — and the check cannot be confused by
			// the shared plan cache evicting and recompiling the shape to
			// a new pointer mid-batch.
			p, err := Compile(cfg)
			if err != nil {
				out[i].Err = err
				continue
			}
			s, err := sp.acquire(p)
			if err != nil {
				out[i].Err = err
				continue
			}
			plan, sess = p, s
		}
		out[i].Result, out[i].Err = sess.Execute(cfg)
	}
	if sess != nil {
		sp.release(plan, sess)
	}
	return out
}
