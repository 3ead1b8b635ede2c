// Package pcie models the PCIe interconnect between GPU, host and NVMe
// SSDs: per-generation lane rates, protocol efficiency, and FIFO link
// servers for each traffic direction. SSDTrain's viability argument
// (§III-D) is stated in terms of required PCIe write bandwidth per GPU,
// so the link model is a first-class substrate.
package pcie

import (
	"fmt"
	"time"

	"ssdtrain/internal/sim"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/units"
)

// Gen is a PCIe generation.
type Gen int

// Supported generations.
const (
	Gen3 Gen = 3
	Gen4 Gen = 4
	Gen5 Gen = 5
)

// perLaneRaw returns the raw per-lane data rate after line coding.
func (g Gen) perLaneRaw() units.Bandwidth {
	switch g {
	case Gen3:
		return 0.985 * units.GBps
	case Gen4:
		return 1.969 * units.GBps
	case Gen5:
		return 3.938 * units.GBps
	default:
		panic(fmt.Sprintf("pcie: unsupported generation %d", int(g)))
	}
}

// LinkConfig describes one PCIe link.
type LinkConfig struct {
	Gen   Gen
	Lanes int
	// Efficiency is the achievable fraction of raw bandwidth after TLP
	// headers, flow control and DMA engine overheads. Measured GPUDirect
	// numbers land around 0.80–0.85 on Gen4 x16.
	Efficiency float64
	// Latency is the fixed per-transfer setup cost (doorbell, DMA
	// descriptor fetch).
	Latency time.Duration
}

// DefaultGen4x16 is the A100-PCIe link used in the paper's testbed.
func DefaultGen4x16() LinkConfig {
	return LinkConfig{Gen: Gen4, Lanes: 16, Efficiency: 0.82, Latency: 3 * time.Microsecond}
}

// Effective returns the usable bandwidth of the link.
func (c LinkConfig) Effective() units.Bandwidth {
	if c.Lanes <= 0 {
		panic("pcie: link needs at least one lane")
	}
	eff := c.Efficiency
	if eff <= 0 || eff > 1 {
		panic(fmt.Sprintf("pcie: efficiency %v out of (0,1]", eff))
	}
	return units.Bandwidth(float64(c.Gen.perLaneRaw()) * float64(c.Lanes) * eff)
}

// Link is a full-duplex PCIe link: independent FIFO servers per direction,
// matching how DMA read and write engines operate concurrently.
type Link struct {
	cfg  LinkConfig
	name string
	down *sim.Server // toward the device (GPU→SSD writes)
	up   *sim.Server // toward the GPU (SSD→GPU reads)

	rec        *spans.Recorder
	downT, upT spans.TrackID
}

// NewLink creates an idle link whose transfers emit spans to rec (nil
// records nothing).
func NewLink(rec *spans.Recorder, name string, cfg LinkConfig) *Link {
	return &Link{
		cfg:   cfg,
		name:  name,
		down:  sim.NewServer(),
		up:    sim.NewServer(),
		rec:   rec,
		downT: rec.RegisterTrack(name + ".down"),
		upT:   rec.RegisterTrack(name + ".up"),
	}
}

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Reset clears both directions' queues and accounting for reuse by a new
// simulation.
func (l *Link) Reset() {
	l.down.Reset()
	l.up.Reset()
}

// Effective returns the usable bandwidth per direction.
func (l *Link) Effective() units.Bandwidth { return l.cfg.Effective() }

// Down submits a device-bound transfer (e.g. activation store) that cannot
// begin before ready. Returns the finish time.
func (l *Link) Down(ready time.Duration, n units.Bytes) time.Duration {
	dur := l.cfg.Latency + l.Effective().TimeFor(n)
	finish := l.down.Submit(ready, dur)
	l.rec.Span(l.downT, spans.KindDMA, -1, l.name, finish-dur, finish, n, 0)
	return finish
}

// Up submits a GPU-bound transfer (e.g. activation reload). Returns the
// finish time.
func (l *Link) Up(ready time.Duration, n units.Bytes) time.Duration {
	dur := l.cfg.Latency + l.Effective().TimeFor(n)
	finish := l.up.Submit(ready, dur)
	l.rec.Span(l.upT, spans.KindDMA, -1, l.name, finish-dur, finish, n, 0)
	return finish
}

// DownBusyTime returns cumulative busy time in the device direction.
func (l *Link) DownBusyTime() time.Duration { return l.down.BusyTime() }

// UpBusyTime returns cumulative busy time in the GPU direction.
func (l *Link) UpBusyTime() time.Duration { return l.up.BusyTime() }

// DownBusyUntil returns the device-direction queue's backlog horizon.
func (l *Link) DownBusyUntil() time.Duration { return l.down.BusyUntil() }

// UpBusyUntil returns the GPU-direction queue's backlog horizon.
func (l *Link) UpBusyUntil() time.Duration { return l.up.BusyUntil() }
