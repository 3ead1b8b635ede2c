package ssd

import (
	"time"

	"ssdtrain/internal/sim"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/units"
)

// Device is one simulated NVMe SSD: independent write and read FIFO
// queues served at the drive's sequential bandwidths, with cumulative
// byte accounting. Wear is derived from the host byte counters; the
// page-accurate FTL is a standalone model for endurance studies
// (simulating 10⁸ pages per training step would be pointless).
type Device struct {
	spec   Spec
	name   string
	writeQ *sim.Server
	readQ  *sim.Server

	hostWritten units.Bytes
	hostRead    units.Bytes

	rec    *spans.Recorder
	wT, rT spans.TrackID
}

// NewDevice creates an idle device whose transfers emit spans to rec
// (nil records nothing).
func NewDevice(rec *spans.Recorder, name string, spec Spec) *Device {
	return &Device{
		spec:   spec,
		name:   name,
		writeQ: sim.NewServer(),
		readQ:  sim.NewServer(),
		rec:    rec,
		wT:     rec.RegisterTrack(name + ".write"),
		rT:     rec.RegisterTrack(name + ".read"),
	}
}

// Spec returns the device specification.
func (d *Device) Spec() Spec { return d.spec }

// Reset clears the device's queues and host byte counters for reuse by a
// new simulation and installs the given spec — reused devices are rebound
// to a (possibly differently derated) spec the same way a fresh device
// would be constructed with it.
func (d *Device) Reset(spec Spec) {
	d.spec = spec
	d.writeQ.Reset()
	d.readQ.Reset()
	d.hostWritten = 0
	d.hostRead = 0
}

// Write submits an n-byte sequential write that cannot start before
// ready. Returns the finish time.
func (d *Device) Write(ready time.Duration, n units.Bytes) time.Duration {
	d.hostWritten += n
	dur := d.spec.WriteLatency + d.spec.SeqWrite.TimeFor(n)
	finish := d.writeQ.Submit(ready, dur)
	d.rec.Span(d.wT, spans.KindNVMe, -1, d.name, finish-dur, finish, n, 0)
	return finish
}

// Read submits an n-byte sequential read. Returns the finish time.
func (d *Device) Read(ready time.Duration, n units.Bytes) time.Duration {
	d.hostRead += n
	dur := d.spec.ReadLatency + d.spec.SeqRead.TimeFor(n)
	finish := d.readQ.Submit(ready, dur)
	d.rec.Span(d.rT, spans.KindNVMe, -1, d.name, finish-dur, finish, n, 0)
	return finish
}

// HostWritten returns cumulative host bytes written.
func (d *Device) HostWritten() units.Bytes { return d.hostWritten }

// HostRead returns cumulative host bytes read.
func (d *Device) HostRead() units.Bytes { return d.hostRead }

// AdvanceHostTraffic adds analytic deltas to the cumulative host byte
// counters without submitting queue work — the steady-state fast path's
// per-cycle accounting for extrapolated steps.
func (d *Device) AdvanceHostTraffic(written, read units.Bytes) {
	d.hostWritten += written
	d.hostRead += read
}

// WriteBusyUntil returns the write queue's backlog horizon.
func (d *Device) WriteBusyUntil() time.Duration { return d.writeQ.BusyUntil() }

// ReadBusyUntil returns the read queue's backlog horizon.
func (d *Device) ReadBusyUntil() time.Duration { return d.readQ.BusyUntil() }

// WriteBusyTime returns cumulative write-queue service time.
func (d *Device) WriteBusyTime() time.Duration { return d.writeQ.BusyTime() }

// ReadBusyTime returns cumulative read-queue service time.
func (d *Device) ReadBusyTime() time.Duration { return d.readQ.BusyTime() }
