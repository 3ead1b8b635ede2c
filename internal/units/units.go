// Package units defines the physical quantities shared by every substrate
// in the simulator: byte counts, bandwidths, and floating-point operation
// counts. Keeping them as distinct named types catches a whole class of
// unit-confusion bugs (bytes vs elements, GB vs GiB) at compile time.
package units

import (
	"fmt"
	"math"
	"time"
)

// Bytes is a size in bytes. Negative values are invalid except as deltas
// in memory timelines.
type Bytes int64

// Common byte quantities. Decimal units (KB, MB, ...) follow storage-vendor
// convention; binary units (KiB, MiB, ...) follow memory convention. SSD
// endurance ratings use decimal units, GPU memory uses binary units, so the
// codebase needs both.
const (
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
	PB Bytes = 1e15

	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
)

// String renders the size with a human-friendly decimal suffix.
func (b Bytes) String() string {
	switch {
	case b >= PB || b <= -PB:
		return fmt.Sprintf("%.2f PB", float64(b)/float64(PB))
	case b >= TB || b <= -TB:
		return fmt.Sprintf("%.2f TB", float64(b)/float64(TB))
	case b >= GB || b <= -GB:
		return fmt.Sprintf("%.2f GB", float64(b)/float64(GB))
	case b >= MB || b <= -MB:
		return fmt.Sprintf("%.2f MB", float64(b)/float64(MB))
	case b >= KB || b <= -KB:
		return fmt.Sprintf("%.2f KB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// GiBf returns the size in binary gigabytes as a float, the unit used by
// the paper's memory-peak figures.
func (b Bytes) GiBf() float64 { return float64(b) / float64(GiB) }

// GBf returns the size in decimal gigabytes as a float, the unit used by
// the paper's offload-amount and bandwidth figures.
func (b Bytes) GBf() float64 { return float64(b) / float64(GB) }

// TBf returns the size in decimal terabytes as a float.
func (b Bytes) TBf() float64 { return float64(b) / float64(TB) }

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// Common bandwidth quantities.
const (
	KBps Bandwidth = 1e3
	MBps Bandwidth = 1e6
	GBps Bandwidth = 1e9
)

// String renders the bandwidth in GB/s, the unit used throughout the paper.
func (bw Bandwidth) String() string {
	return fmt.Sprintf("%.2f GB/s", float64(bw)/float64(GBps))
}

// GBps_ returns the bandwidth in decimal GB/s as a float.
func (bw Bandwidth) GBpsF() float64 { return float64(bw) / float64(GBps) }

// TimeFor returns how long moving n bytes takes at this bandwidth,
// rounded up to the nanosecond so zero-duration transfers cannot occur
// for nonzero sizes.
func (bw Bandwidth) TimeFor(n Bytes) time.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return durationOf(float64(n) / float64(bw))
}

// durationOf converts a positive number of seconds to a Duration of at
// least 1 ns. A time past the largest Duration (about 292 years)
// saturates there instead of wrapping negative.
func durationOf(secs float64) time.Duration {
	ns := secs * float64(time.Second)
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return max(time.Duration(ns), time.Nanosecond)
}

// FLOPs counts floating-point operations (not a rate).
type FLOPs float64

// Common operation counts.
const (
	MFLOP FLOPs = 1e6
	GFLOP FLOPs = 1e9
	TFLOP FLOPs = 1e12
	PFLOP FLOPs = 1e15
)

// FLOPSRate is a compute rate in FLOP per second.
type FLOPSRate float64

// Common compute rates.
const (
	GFLOPS FLOPSRate = 1e9
	TFLOPS FLOPSRate = 1e12
	PFLOPS FLOPSRate = 1e15
)

// String renders the rate in TFLOP/s, the unit used by the paper's
// throughput plots.
func (r FLOPSRate) String() string {
	return fmt.Sprintf("%.1f TFLOP/s", float64(r)/float64(TFLOPS))
}

// TimeFor returns how long executing n operations takes at this rate,
// rounded up to the nanosecond for nonzero work.
func (r FLOPSRate) TimeFor(n FLOPs) time.Duration {
	if n <= 0 || r <= 0 {
		return 0
	}
	return durationOf(float64(n) / float64(r))
}

// Rate divides work by time, returning the achieved rate.
func Rate(n FLOPs, d time.Duration) FLOPSRate {
	if d <= 0 {
		return 0
	}
	return FLOPSRate(float64(n) / d.Seconds())
}

// BandwidthOf divides bytes by time, returning the achieved bandwidth.
func BandwidthOf(n Bytes, d time.Duration) Bandwidth {
	if d <= 0 {
		return 0
	}
	return Bandwidth(float64(n) / d.Seconds())
}
