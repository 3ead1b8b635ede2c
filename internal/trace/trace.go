// Package trace collects the measurements the paper reports: the
// runtime's counters for executor and cache behaviour (packs, stores,
// forwards, dedup hits) — a fixed enum, counted in an array and named
// only when rendered — per-step statistics, and the text tables the
// tools print.
package trace

import (
	"fmt"
	"math/bits"
	"strings"
	"time"

	"ssdtrain/internal/units"
)

// Counter is one of the runtime's fixed counters. The values run in
// name order, so walking them in order lists the names sorted.
type Counter uint8

// The runtime counters: the tensor cache's (cache.*) and the executor's
// (exec.*), in name order.
const (
	CacheDedupHits Counter = iota
	CacheDemandLoads
	CacheForwardHits
	CacheKeeps
	CacheLeaks
	CacheLoadErrors
	CacheLoads
	CachePacks
	CacheSmallSkips
	CacheStoreErrors
	CacheStores
	CacheWeightSkips
	ExecBwdOps
	ExecFwdOps
	ExecPacks
	ExecRecomputeOps
	ExecUnpacks
	// NumCounters is the number of counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	CacheDedupHits:   "cache.dedup_hits",
	CacheDemandLoads: "cache.demand_loads",
	CacheForwardHits: "cache.forward_hits",
	CacheKeeps:       "cache.keeps",
	CacheLeaks:       "cache.leaks",
	CacheLoadErrors:  "cache.load_errors",
	CacheLoads:       "cache.loads",
	CachePacks:       "cache.packs",
	CacheSmallSkips:  "cache.small_skips",
	CacheStoreErrors: "cache.store_errors",
	CacheStores:      "cache.stores",
	CacheWeightSkips: "cache.weight_skips",
	ExecBwdOps:       "exec.bwd_ops",
	ExecFwdOps:       "exec.fwd_ops",
	ExecPacks:        "exec.packs",
	ExecRecomputeOps: "exec.recompute_ops",
	ExecUnpacks:      "exec.unpacks",
}

// String returns the counter's name.
func (k Counter) String() string { return counterNames[k] }

// Counters is a set of monotonically increasing counters, one per
// Counter, plus which of them have been touched. It is a plain value:
// assigning it takes a snapshot, and the zero value is empty.
type Counters struct {
	vals    [NumCounters]int64
	touched uint32
}

// Add increments counter k by n and marks it touched.
func (c *Counters) Add(k Counter, n int64) {
	c.vals[k] += n
	c.touched |= 1 << k
}

// Reset zeroes every counter for reuse by a new run.
func (c *Counters) Reset() { *c = Counters{} }

// Value returns counter k's value (zero if never touched).
func (c *Counters) Value(k Counter) int64 { return c.vals[k] }

// Touched reports whether counter k has been added to since the last
// Reset, even by zero.
func (c *Counters) Touched(k Counter) bool { return c.touched&(1<<k) != 0 }

// Get returns the value of the counter with the given name (zero if it
// was never touched or names no counter).
func (c *Counters) Get(name string) int64 {
	for k, n := range counterNames {
		if n == name {
			return c.vals[k]
		}
	}
	return 0
}

// Names returns the sorted list of counters that have been touched.
func (c *Counters) Names() []string {
	names := make([]string, 0, bits.OnesCount32(c.touched))
	for k := range NumCounters {
		if c.Touched(k) {
			names = append(names, k.String())
		}
	}
	return names
}

// String renders the touched counters, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for k := range NumCounters {
		if !c.Touched(k) {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, c.vals[k])
	}
	return b.String()
}

// StepStats summarizes one training step, the row unit of the paper's
// evaluation figures.
type StepStats struct {
	// StepTime is the end-to-end virtual time of the step (Fig 6a).
	StepTime time.Duration
	// ActivationPeak is the activation-class memory peak within the step
	// (Fig 6b).
	ActivationPeak units.Bytes
	// TotalPeak is the peak of all GPU memory.
	TotalPeak units.Bytes
	// OffloadedBytes is the amount written to the offload target (Table III).
	OffloadedBytes units.Bytes
	// ReloadedBytes is the amount read back during backward.
	ReloadedBytes units.Bytes
	// ForwardedBytes were resolved from in-flight stores without SSD reads.
	ForwardedBytes units.Bytes
	// ModelFLOPs is the algorithmic work of the step (recomputation
	// excluded), the numerator of the paper's model-throughput metric.
	ModelFLOPs units.FLOPs
	// ComputeStall is GPU compute idle time spent waiting on reloads; zero
	// means the paper's "perfect overlap" claim holds for the config.
	ComputeStall time.Duration
}

// ModelThroughput returns algorithmic FLOPs divided by step time — the
// paper's per-GPU "model throughput" y-axis (Fig 7).
func (s StepStats) ModelThroughput() units.FLOPSRate {
	return units.Rate(s.ModelFLOPs, s.StepTime)
}

// WriteBandwidth returns the average offload write bandwidth over the step.
func (s StepStats) WriteBandwidth() units.Bandwidth {
	return units.BandwidthOf(s.OffloadedBytes, s.StepTime)
}
