// Package trace collects the measurements the paper reports: named
// counters for cache behaviour (offloads, forwards, dedup hits),
// per-step statistics, and the text tables the tools print.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ssdtrain/internal/units"
)

// Counters is a set of named monotonically increasing counters.
type Counters struct {
	vals map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]int64)}
}

// Add increments a counter by n.
func (c *Counters) Add(name string, n int64) { c.vals[name] += n }

// Reset zeroes every counter for reuse by a new run; map buckets are
// retained so a replayed run's increments allocate nothing.
func (c *Counters) Reset() { clear(c.vals) }

// Clone returns an independent snapshot of the counter set, so a result
// can keep a run's final counters while the live set is reset for the
// next run.
func (c *Counters) Clone() *Counters {
	cp := &Counters{vals: make(map[string]int64, len(c.vals))}
	for k, v := range c.vals {
		cp.vals[k] = v
	}
	return cp
}

// Get returns a counter's value (zero if never touched).
func (c *Counters) Get(name string) int64 { return c.vals[name] }

// Range calls f for every touched counter, in unspecified order. It is
// the allocation-free alternative to Names+Get for callers (the
// steady-state signature fold) that run once per simulated step.
func (c *Counters) Range(f func(name string, v int64)) {
	for k, v := range c.vals {
		f(k, v)
	}
}

// Names returns the sorted list of counters that have been touched.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.vals))
	for k := range c.vals {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders all counters, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.Names() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", name, c.vals[name])
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
