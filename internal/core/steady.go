package core

import (
	"math"
	"slices"
	"time"

	"ssdtrain/internal/pcie"
	"ssdtrain/internal/sim"
	"ssdtrain/internal/units"
)

// SteadySupport is implemented by offloaders that participate in the
// steady-state fast path. Per executed training step, FoldCycle folds the
// offloader's state delta since the previous fold into sig — cumulative
// counter growth, queue busy growth, and backlog horizons relative to the
// step's start (sim.Sig.FoldHorizon) — and remembers the deltas. Two
// consecutive steps that fold identically (together with the
// executor-side signature) are a steady cycle; ExtrapolateCycles then
// advances the cumulative accounting by n further cycles of the
// remembered deltas without simulating them.
//
// Every tier implements it (Tier embeds it). A run with an armed fault
// spec never folds: its wear ledger needs the real write stream, so the
// harness simulates it in full.
type SteadySupport interface {
	FoldCycle(sig *sim.Sig, origin time.Duration)
	ExtrapolateCycles(n int64)
}

// tierSteady is a tier's fold bookkeeping: the cumulative snapshots the
// next fold diffs against, and the last cycle's deltas for extrapolation.
type tierSteady struct {
	written, read, deleted    units.Bytes
	storeBusy, loadBusy       time.Duration
	dWritten, dRead, dDeleted units.Bytes
}

// foldCycle folds the shared tier machinery's per-cycle delta: block-store
// traffic growth, residency, and both FIFO queues' busy growth and
// relative horizons.
func (b *tierBase) foldCycle(sig *sim.Sig, origin time.Duration) {
	st := &b.steady
	w, r, d := b.store.Written(), b.store.Read(), b.store.Deleted()
	st.dWritten, st.dRead, st.dDeleted = w-st.written, r-st.read, d-st.deleted
	sig.FoldInt(int64(st.dWritten))
	sig.FoldInt(int64(st.dRead))
	sig.FoldInt(int64(st.dDeleted))
	sig.FoldInt(int64(b.store.Used()))
	sig.FoldInt(int64(b.store.PeakUsed()))
	sig.FoldInt(int64(b.store.Count()))
	sb, lb := b.storeQ.BusyTime(), b.loadQ.BusyTime()
	sig.FoldDur(sb - st.storeBusy)
	sig.FoldDur(lb - st.loadBusy)
	sig.FoldHorizon(b.storeQ.BusyUntil(), origin)
	sig.FoldHorizon(b.loadQ.BusyUntil(), origin)
	st.written, st.read, st.deleted = w, r, d
	st.storeBusy, st.loadBusy = sb, lb
}

// extrapolateCycles advances the block store's cumulative traffic by n
// cycles of the last folded deltas. Residency (used/peak) and the queues
// are untouched: a steady cycle's file churn is net-zero, and nothing a
// RunResult reports reads queue state after the run.
func (b *tierBase) extrapolateCycles(n int64) {
	st := &b.steady
	b.store.AdvanceTraffic(
		st.dWritten*units.Bytes(n),
		st.dRead*units.Bytes(n),
		st.dDeleted*units.Bytes(n))
}

// linkSteady is the fold bookkeeping for one PCIe link's two directions.
type linkSteady struct {
	downBusy, upBusy time.Duration
}

func (ls *linkSteady) fold(sig *sim.Sig, l *pcie.Link, origin time.Duration) {
	db, ub := l.DownBusyTime(), l.UpBusyTime()
	sig.FoldDur(db - ls.downBusy)
	sig.FoldDur(ub - ls.upBusy)
	sig.FoldHorizon(l.DownBusyUntil(), origin)
	sig.FoldHorizon(l.UpBusyUntil(), origin)
	ls.downBusy, ls.upBusy = db, ub
}

// devSteady is the fold bookkeeping for one NVMe member device.
type devSteady struct {
	written, read   units.Bytes
	wBusy, rBusy    time.Duration
	dWritten, dRead units.Bytes
}

// FoldCycle implements SteadySupport: the shared tier machinery, the GDS
// link, the stripe cursor, and every member device's host counters and
// queue state.
func (o *SSDOffloader) FoldCycle(sig *sim.Sig, origin time.Duration) {
	o.tierBase.foldCycle(sig, origin)
	o.lnSteady.fold(sig, o.link, origin)
	if o.SharedArray {
		// The owning tier folds the shared array's cursor and member-device
		// counters (they include this tier's traffic); folding them here too
		// would be harmless for convergence but would double-advance wear on
		// extrapolation, so the shared rung folds only its own machinery.
		return
	}
	devs := o.array.Devices()
	if len(o.devSteady) != len(devs) {
		o.devSteady = make([]devSteady, len(devs))
	}
	sig.FoldInt(int64(o.array.Cursor()))
	for i, d := range devs {
		ds := &o.devSteady[i]
		w, r := d.HostWritten(), d.HostRead()
		ds.dWritten, ds.dRead = w-ds.written, r-ds.read
		sig.FoldInt(int64(ds.dWritten))
		sig.FoldInt(int64(ds.dRead))
		wb, rb := d.WriteBusyTime(), d.ReadBusyTime()
		sig.FoldDur(wb - ds.wBusy)
		sig.FoldDur(rb - ds.rBusy)
		sig.FoldHorizon(d.WriteBusyUntil(), origin)
		sig.FoldHorizon(d.ReadBusyUntil(), origin)
		ds.written, ds.read, ds.wBusy, ds.rBusy = w, r, wb, rb
	}
}

// ExtrapolateCycles implements SteadySupport: the tier's store traffic and
// every member device's host byte counters — the inputs of the §III-D wear
// ledger and the fleet's per-drive endurance projection — advance by n
// cycles of the last folded per-cycle deltas.
func (o *SSDOffloader) ExtrapolateCycles(n int64) {
	o.tierBase.extrapolateCycles(n)
	if o.SharedArray {
		return
	}
	devs := o.array.Devices()
	if len(o.devSteady) != len(devs) {
		return
	}
	for i, d := range devs {
		ds := &o.devSteady[i]
		d.AdvanceHostTraffic(ds.dWritten*units.Bytes(n), ds.dRead*units.Bytes(n))
	}
}

// FoldCycle implements SteadySupport for the pinned host-memory tier.
func (o *CPUOffloader) FoldCycle(sig *sim.Sig, origin time.Duration) {
	o.tierBase.foldCycle(sig, origin)
	o.lnSteady.fold(sig, o.link, origin)
}

// ExtrapolateCycles implements SteadySupport.
func (o *CPUOffloader) ExtrapolateCycles(n int64) {
	o.tierBase.extrapolateCycles(n)
}

// FoldCycle implements SteadySupport for the hierarchy: its own placement
// state (residency, per-tier routing deltas) plus every tier in the
// stack, in stack order.
func (o *TieredOffloader) FoldCycle(sig *sim.Sig, origin time.Duration) {
	sig.FoldInt(int64(len(o.where)))
	sig.FoldInt(int64(o.used))
	sig.FoldInt(int64(o.peak))
	if n := len(o.placed); len(o.steadyPlaced) != n {
		o.steadyPlaced = slices.Grow(o.steadyPlaced[:0], n)[:n]
		o.steadyDPlaced = slices.Grow(o.steadyDPlaced[:0], n)[:n]
		clear(o.steadyPlaced)
	}
	for i, p := range o.placed {
		d := p - o.steadyPlaced[i]
		sig.FoldInt(int64(d))
		o.steadyDPlaced[i] = d
		o.steadyPlaced[i] = p
	}
	// A split cycle that routes off the target fraction moves the
	// balance every step until a decision flips, with every delta above
	// unchanged: two steps may match only when the balance holds still.
	if sp, ok := o.policy.(splitPolicy); ok && len(o.placed) > 1 {
		sig.Fold(math.Float64bits(sp.balance(o.placed)))
	}
	for _, t := range o.tiers {
		t.FoldCycle(sig, origin)
	}
}

// ExtrapolateCycles implements SteadySupport: per-tier routing totals and
// every stacked tier's accounting advance by n cycles.
func (o *TieredOffloader) ExtrapolateCycles(n int64) {
	if len(o.steadyDPlaced) == len(o.placed) {
		for i := range o.placed {
			o.placed[i] += o.steadyDPlaced[i] * units.Bytes(n)
		}
	}
	for _, t := range o.tiers {
		t.ExtrapolateCycles(n)
	}
}

var _ SteadySupport = (*TieredOffloader)(nil)
