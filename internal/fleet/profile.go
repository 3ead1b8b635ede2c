package fleet

import (
	"errors"
	"sync/atomic"
	"time"

	"ssdtrain/internal/core"
	"ssdtrain/internal/exp"
	"ssdtrain/internal/lru"
	"ssdtrain/internal/pool"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/units"
)

// Profile is the steady-state behaviour of one job measured at a given
// share of its node's NVMe array bandwidth. The fleet simulation treats
// these as the job's fluid rates: a job at share s completes steps at
// 1/StepTime(s) per second and writes OffloadedPerStep(s) per GPU per
// step to the shared array.
type Profile struct {
	// StepTime is the steady-state training step time. Jobs whose offload
	// budget is pinned (memory-constrained jobs) dilate under contention;
	// jobs using the Fig 3 planner instead offload less.
	StepTime time.Duration
	// OffloadedPerStep is the per-GPU activation volume offloaded each
	// step, across every tier of the job's hierarchy.
	OffloadedPerStep units.Bytes
	// ArrayPerStep is the slice of OffloadedPerStep that lands on the
	// node's shared NVMe array — the part that contends. A dram-first
	// hybrid granted enough DRAM writes nothing here.
	ArrayPerStep units.Bytes
	// ActPeak and TotalPeak are the per-GPU memory high-water marks; a
	// placement is feasible only if TotalPeak fits the GPU.
	ActPeak   units.Bytes
	TotalPeak units.Bytes
	// PlannedBudget is the offload budget the Fig 3 workflow chose at
	// this share (0 when the job pins its own budget).
	PlannedBudget units.Bytes
}

// StepsPerSecond is the job's fluid progress rate at this share.
func (p Profile) StepsPerSecond() float64 {
	if p.StepTime <= 0 {
		return 0
	}
	return 1 / p.StepTime.Seconds()
}

// WriteRate is the per-GPU sustained write bandwidth against the shared
// array at this share; DRAM-rung traffic stays off the array and is
// excluded.
func (p Profile) WriteRate() units.Bandwidth {
	if p.StepTime <= 0 {
		return 0
	}
	return units.Bandwidth(float64(p.ArrayPerStep) / p.StepTime.Seconds())
}

// Profiler measures job profiles by running the experiment harness with
// contended SSD bandwidth injected, memoizing results in an LRU cache.
// Profiles are pure functions of (RunConfig, node, share), so the cache
// never goes stale and concurrent fills are safe: duplicate in-flight
// measurements are coalesced through the shared lru.Singleflight, so
// concurrent identical requests from the worker pool share one simulation
// instead of racing the LRU. The fully-bound RunConfig is a pure value
// tree, so it serves as the cache key directly — no serialization on the
// hot lookup path.
type Profiler struct {
	cache  *lru.Cache[exp.RunConfig, profEntry]
	flight lru.Singleflight[exp.RunConfig, profEntry]
	// sessions recycles execution arenas across cache-miss measurements:
	// a fleet sweep's (share × DRAM-grant) key grid shares a handful of
	// plan shapes, so after the first few misses every measurement runs
	// on a reset arena instead of building runtime, graph and offload
	// stack from scratch. Sessions reset to a just-constructed state, so
	// cached profiles are byte-identical to fresh-run profiles.
	sessions *exp.SessionPool
	// runs counts actual measurement executions (cache misses that did
	// the work); with an adequate cache capacity it equals the number of
	// distinct profiles, independent of concurrency.
	runs atomic.Int64
	// coalesced counts requests that piggybacked on another caller's
	// in-flight measurement.
	coalesced atomic.Int64
}

// profEntry is one cached measurement outcome: a profile, or the
// overflow that proved the (config, share, grant) combination
// infeasible. Caching the verdict matters — every scheduler event
// re-probes infeasible co-locations through canPlace, and without it
// each probe would re-run the whole measurement just to rediscover the
// same overflow.
type profEntry struct {
	profile  Profile
	overflow *core.OverflowError
}

// DefaultCacheCapacity holds every profile a large sweep needs: distinct
// palette configs × share levels stays well below this.
const DefaultCacheCapacity = 4096

// NewProfiler creates a profiler with the given cache capacity (0 uses
// DefaultCacheCapacity).
func NewProfiler(capacity int) *Profiler {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Profiler{
		cache:    lru.New[exp.RunConfig, profEntry](capacity),
		sessions: exp.NewSessionPool(0),
	}
}

// contendedRun binds a job's run config to its node hardware, array
// share and DRAM grant: the node's GPU and shared SSD array replace
// whatever the config carried, SSD-writing runs see only their bandwidth
// share, and DRAM-consuming runs see only their granted pool slice.
func contendedRun(run exp.RunConfig, node NodeSpec, share float64, dramGrant units.Bytes) exp.RunConfig {
	run.GPU = node.GPU
	run.SSD = node.SSD
	dram, nvme := run.Strategy.OffloadTiers()
	if nvme && share > 0 && share < 1 {
		run.SSDBandwidthShare = share
	} else {
		run.SSDBandwidthShare = 0
	}
	if dram && node.DRAM > 0 {
		run.DRAMCapacity = dramGrant
	}
	return run
}

// Measure returns the job's profile at the given array share and DRAM
// grant, running the measurement on a miss. Concurrent misses on one key
// share a single measurement via singleflight.
func (p *Profiler) Measure(run exp.RunConfig, node NodeSpec, share float64, dramGrant units.Bytes) (Profile, error) {
	key := contendedRun(run, node, share, dramGrant)
	if v, ok := p.cache.Get(key); ok {
		return v.unpack()
	}
	v, err, shared := p.flight.Do(key, func() (profEntry, error) {
		// Double-check under the flight: a racing caller may have filled
		// the cache between our miss and the flight acquisition.
		if v, ok := p.cache.GetQuiet(key); ok {
			return v, nil
		}
		prof, err := p.measure(key)
		e := profEntry{profile: prof}
		// Pool overflow is a deterministic property of the key, so the
		// infeasibility verdict is cached like any profile; other errors
		// are not (nothing should produce them repeatedly).
		if !errors.As(err, &e.overflow) && err != nil {
			return e, err
		}
		p.runs.Add(1)
		p.cache.Put(key, e)
		return e, nil
	})
	if shared {
		p.coalesced.Add(1)
	}
	if err != nil {
		return Profile{}, err
	}
	return v.unpack()
}

// unpack returns the entry's profile or its cached infeasibility error.
func (e profEntry) unpack() (Profile, error) {
	if e.overflow != nil {
		return Profile{}, e.overflow
	}
	return e.profile, nil
}

// measure executes one profiling run on a pooled session arena.
func (p *Profiler) measure(bound exp.RunConfig) (Profile, error) {
	res, err := p.sessions.Execute(bound)
	if err != nil {
		return Profile{}, err
	}
	prof := Profile{
		StepTime:         res.StepTime(),
		OffloadedPerStep: res.Measured.IO.Offloaded,
		ActPeak:          res.Measured.ActPeak,
		TotalPeak:        res.Measured.TotalPeak,
		PlannedBudget:    res.PlannedBudget,
	}
	prof.ArrayPerStep = arraySlice(res, prof.OffloadedPerStep)
	return prof, nil
}

// arraySlice apportions the steady-state per-step offload volume to the
// NVMe rungs using the run's cumulative per-tier traffic split. A
// single-rung NVMe run keeps the volume bit-exact.
func arraySlice(res *exp.RunResult, perStep units.Bytes) units.Bytes {
	var nvme, total units.Bytes
	for _, t := range res.Tiers {
		total += t.Written
		if t.Kind == core.TierNVMe {
			nvme += t.Written
		}
	}
	switch {
	case total == 0 || nvme == 0:
		return 0
	case nvme == total:
		return perStep
	default:
		return units.Bytes(float64(perStep) * float64(nvme) / float64(total))
	}
}

// Runs reports how many measurement executions the profiler performed.
func (p *Profiler) Runs() int64 { return p.runs.Load() }

// Coalesced reports how many requests shared another caller's in-flight
// measurement instead of running (or blocking on the LRU) themselves.
func (p *Profiler) Coalesced() int64 { return p.coalesced.Load() }

// Cached reports how many distinct profiles are resident.
func (p *Profiler) Cached() int { return p.cache.Len() }

// CacheStats returns the underlying cache's hit/miss counters.
func (p *Profiler) CacheStats() (hits, misses int64) { return p.cache.Stats() }

// PoolStats snapshots the profiler's session-pool counters — how often
// cache-miss measurements recycled a warm arena instead of building one.
// A long-lived profiler shared across serve requests surfaces these on
// the /metrics endpoint.
func (p *Profiler) PoolStats() exp.SessionPoolStats { return p.sessions.Stats() }

// SampleTrace re-runs one job's profiling measurement — same node
// binding, same share, same DRAM grant — with the flight recorder on and
// returns the span snapshot. Traced runs bypass the profile cache (a
// trace is a diagnostic sample, not a rate) but reuse the same pooled
// arenas, and because tracing cannot perturb a run, the sampled spans
// describe exactly the measurement whose cached profile the fleet
// simulation is using.
func (p *Profiler) SampleTrace(run exp.RunConfig, node NodeSpec, share float64, dramGrant units.Bytes) (*spans.Trace, error) {
	key := contendedRun(run, node, share, dramGrant)
	key.Trace = true
	res, err := p.sessions.Execute(key)
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// primeItem is one (config, share, grant) measurement to precompute.
type primeItem struct {
	run   exp.RunConfig
	share float64
	grant units.Bytes
}

// prime concurrently precomputes every profile a simulation of the given
// (flattened) jobs can request: array-writing jobs contend at per-GPU shares 1/t for
// t = 1..node GPUs, DRAM-consuming jobs at every pool slice the node can
// grant (the cross product, for hybrid jobs that contend on both axes),
// and all other strategies only ever run exclusively. Because each
// profile is deterministic, priming with any worker count leaves the
// cache in the same logical state, which is what makes the fleet
// simulation's reports independent of parallelism.
func (p *Profiler) prime(jobs []Job, node NodeSpec, workers int) error {
	seen := make(map[exp.RunConfig]bool)
	var items []primeItem
	add := func(run exp.RunConfig, share float64, grant units.Bytes) {
		key := contendedRun(run, node, share, grant)
		if !seen[key] {
			seen[key] = true
			items = append(items, primeItem{run: run, share: share, grant: grant})
		}
	}
	for _, j := range jobs {
		shares := []float64{1}
		if offloadsToSSD(j) {
			shares = shares[:0]
			for t := 1; t <= node.GPUs; t++ {
				shares = append(shares, 1/float64(t))
			}
		}
		grants := []units.Bytes{j.run.DRAMCapacity}
		if wantsDRAM(j) && node.DRAM > 0 {
			grants = grants[:0]
			for t := 1; t <= node.GPUs; t++ {
				grants = append(grants, dramGrant(node, j, t))
			}
		}
		for _, share := range shares {
			for _, grant := range grants {
				add(j.run, share, grant)
			}
		}
	}
	_, err := pool.ParallelMap(workers, items, func(it primeItem) (Profile, error) {
		prof, err := p.Measure(it.run, node, it.share, it.grant)
		// A pinned-budget tenant can overflow its pool at contention
		// levels the scheduler will never actually grant it: that combo
		// is simply infeasible — the verdict is now cached, and canPlace
		// maps it to "cannot co-locate" — not a priming failure.
		var ovf *core.OverflowError
		if errors.As(err, &ovf) {
			return Profile{}, nil
		}
		return prof, err
	})
	return err
}
