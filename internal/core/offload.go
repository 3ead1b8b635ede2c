package core

import (
	"fmt"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/gds"
	"ssdtrain/internal/pcie"
	"ssdtrain/internal/sim"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/ssd"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// Span names for tier store/load traffic. Stores on the GDS path record
// which transfer path they took; the bounce-path spans are how a trace
// shows the efficiency cliff unregistered memory falls off.
const (
	spanStoreDirect = "store direct"
	spanStoreBounce = "store bounce"
	spanStore       = "store"
	spanLoad        = "load"
)

// Offloader moves tensor payloads between GPU memory and an offload
// target. Implementations provide two FIFO queues — one for stores, one
// for loads — matching the cache's two thread pools (§III-C2). All times
// are virtual; Store/Load return when the transfer's data is fully on the
// target/GPU.
type Offloader interface {
	// Name identifies the target (e.g. "/mnt/md1").
	Name() string
	// Store writes t to the target under the ID's file name, starting no
	// earlier than ready (the producing kernel's completion). It returns
	// the transfer's start and finish times. A bounded target refuses a
	// tensor it cannot hold with an *OverflowError.
	Store(id TensorID, t *tensor.Tensor, ready time.Duration) (start, finish time.Duration, err error)
	// Load reads the file back, starting no earlier than ready; it
	// returns the transfer's start and finish times plus the payload
	// (nil for size-only stores). Loading an ID the target does not hold
	// returns a *MissingBlockError.
	Load(id TensorID, ready time.Duration) (start, finish time.Duration, data []byte, err error)
	// Delete removes the file (idempotent).
	Delete(id TensorID)
	// WriteBandwidth/ReadBandwidth expose the nominal path rates for
	// offload planning (Fig 3).
	WriteBandwidth() units.Bandwidth
	ReadBandwidth() units.Bandwidth
	// BytesWritten/BytesRead are cumulative host-visible transfer totals.
	BytesWritten() units.Bytes
	BytesRead() units.Bytes
	// PeakResident is the high-water mark of bytes live on the target.
	PeakResident() units.Bytes
}

// TierKind classifies a tier's medium for placement policies, budget
// planning and reporting.
type TierKind string

// Tier kinds.
const (
	// TierDRAM is a pinned host-memory pool reached over the PCIe host
	// DMA path.
	TierDRAM TierKind = "dram"
	// TierNVMe is an NVMe array reached over the GDS peer-to-peer path.
	TierNVMe TierKind = "nvme"
)

// Tier is one rung of the offload hierarchy: an Offloader that also
// exposes its medium, capacity and current residency so placement
// policies can route tensors across a stack of tiers, and folds its
// per-step state for the steady-state fast path. Both single-target
// offloaders (SSD, pinned host memory) implement it; TieredOffloader
// composes them.
type Tier interface {
	Offloader
	SteadySupport
	// Kind classifies the tier's medium.
	Kind() TierKind
	// Capacity is the tier's byte capacity; 0 means unbounded.
	Capacity() units.Bytes
	// Used is the bytes currently resident on the tier.
	Used() units.Bytes
}

// OverflowError reports a bounded tier refusing a store that would
// exceed its capacity.
type OverflowError struct {
	Tier                 string
	Used, Need, Capacity units.Bytes
}

// Error implements error.
func (e *OverflowError) Error() string {
	return fmt.Sprintf("core: %s pool overflow: %v used + %v > %v capacity (re-profile the first step or spill to a lower tier)",
		e.Tier, e.Used, e.Need, e.Capacity)
}

// DeviceFailedError reports a transfer refused because the tier's
// backing device (or its whole array) is failed at the transfer's start
// time and no surviving capacity can absorb it. It is a typed mid-run
// error like OverflowError: Session.Execute surfaces it cleanly and the
// arena stays reusable afterward.
type DeviceFailedError struct {
	// Tier names the failed tier.
	Tier string
	// At is the refused transfer's computed start time.
	At time.Duration
	// Op is the refused operation ("store" or "load").
	Op string
}

// Error implements error.
func (e *DeviceFailedError) Error() string {
	return fmt.Sprintf("core: %s device failed: %s at %v refused, no surviving device", e.Tier, e.Op, e.At)
}

// MissingBlockError reports a load of an ID the tier does not hold.
type MissingBlockError struct {
	Tier string
	ID   TensorID
}

// Error implements error.
func (e *MissingBlockError) Error() string {
	return fmt.Sprintf("core: load of missing offload file %s/%s", e.Tier, e.ID.FileName())
}

// tierBase is the machinery every tier shares (§III-C2): the two FIFO
// "thread pool" queues, the byte-accurate block store, the per-transfer
// latency and path bandwidths, and the accounting the hierarchy
// aggregates.
type tierBase struct {
	name  string
	store *ssd.BlockStore[TensorID]

	// storeQ and loadQ are the two FIFO "thread pool" queues.
	storeQ sim.Server
	loadQ  sim.Server

	writeBW units.Bandwidth
	readBW  units.Bandwidth
	latency time.Duration

	// rec and the two tracks carry the tier's store/load spans; the
	// per-direction queues map one-to-one onto trace tracks.
	rec           *spans.Recorder
	storeT, loadT spans.TrackID

	// steady is the steady-state fast path's fold bookkeeping (steady.go).
	steady tierSteady
}

// newTierBase wires the shared tier machinery; its store/load spans go
// to rec (nil records nothing).
func newTierBase(rec *spans.Recorder, name string, latency time.Duration, writeBW, readBW units.Bandwidth) tierBase {
	b := tierBase{
		name:    name,
		store:   ssd.NewBlockStore[TensorID](),
		writeBW: writeBW,
		readBW:  readBW,
		latency: latency,
		rec:     rec,
	}
	b.storeT, b.loadT = rec.RegisterPair(name, ".store", ".load")
	return b
}

// reset clears the shared tier machinery — block store, both FIFO queues —
// for reuse by a new simulation. Bandwidths and latency are left for the
// owning tier, which may need to re-derate them.
func (b *tierBase) reset() {
	b.store.Reset()
	b.storeQ.Reset()
	b.loadQ.Reset()
	b.steady = tierSteady{}
}

// Presize sizes the tier's block store for n blocks. Call it before the
// first store.
func (b *tierBase) Presize(n int) { b.store.Presize(n) }

// Name implements Offloader.
func (b *tierBase) Name() string { return b.name }

// Delete implements Offloader.
func (b *tierBase) Delete(id TensorID) { b.store.Delete(id) }

// WriteBandwidth implements Offloader.
func (b *tierBase) WriteBandwidth() units.Bandwidth { return b.writeBW }

// ReadBandwidth implements Offloader.
func (b *tierBase) ReadBandwidth() units.Bandwidth { return b.readBW }

// BytesWritten implements Offloader.
func (b *tierBase) BytesWritten() units.Bytes { return b.store.Written() }

// BytesRead implements Offloader.
func (b *tierBase) BytesRead() units.Bytes { return b.store.Read() }

// PeakResident implements Offloader.
func (b *tierBase) PeakResident() units.Bytes { return b.store.PeakUsed() }

// Used implements Tier.
func (b *tierBase) Used() units.Bytes { return b.store.Used() }

// Preload records a resident block on the tier without a timed transfer —
// one-time staging (optimizer states copied in before training starts)
// that must show up in residency and capacity accounting but not in any
// queue, link, or device timeline.
func (b *tierBase) Preload(id TensorID, n units.Bytes) {
	b.store.WriteSize(id, n)
}

// writeBlock records the payload (or its size) in the block store.
func (b *tierBase) writeBlock(id TensorID, t *tensor.Tensor, n units.Bytes) {
	if data := t.Storage().Data(); data != nil {
		b.store.WriteFile(id, data)
	} else {
		b.store.WriteSize(id, n)
	}
}

// SSDOffloader implements the GDS path: GPU → PCIe → RAID0 NVMe array
// with no host bounce (§II-D). Registered storages (the CUDA-malloc-hook
// path) move at the full bottleneck bandwidth; unregistered ones fall back
// to the derated compatibility path.
type SSDOffloader struct {
	tierBase
	link     *pcie.Link
	array    *ssd.Array
	registry *gds.Registry
	// faults, when armed, degrades or refuses transfers as a function of
	// their computed start time. nil (the default) is the healthy path:
	// Store/Load keep their exact fault-free arithmetic. Armed, it
	// points at ctl, which Arm rebuilds in place every run.
	faults *faults.Controller
	ctl    faults.Controller

	// SharedArray marks a secondary tier over an array another tier owns
	// (the optimizer rung sharing the activation rung's NVMe array). The
	// owning tier folds and extrapolates the member devices' cumulative
	// counters — which already include this tier's traffic — so a shared
	// tier must not, or extrapolated wear would double-count.
	SharedArray bool

	// lnSteady/devSteady are the steady-state fold bookkeeping for the GDS
	// link and the member devices (steady.go).
	lnSteady  linkSteady
	devSteady []devSteady
}

// gdsPathRates returns the per-direction effective rates of the GDS
// path: transfers stream through the root complex, so bandwidth is
// min(link, array aggregate) per direction. Shared by construction and
// Reset so a recycled tier can never plan against different rates than a
// fresh one.
func gdsPathRates(link *pcie.Link, array *ssd.Array) (wb, rb units.Bandwidth) {
	wb = link.Effective()
	if aw := array.AggregateWrite(); aw < wb {
		wb = aw
	}
	rb = link.Effective()
	if ar := array.AggregateRead(); ar < rb {
		rb = ar
	}
	return wb, rb
}

// NewSSDOffloader builds the SSD offloader over a PCIe link and an array.
// The effective rates are the path bottlenecks (gdsPathRates).
func NewSSDOffloader(rec *spans.Recorder, name string, link *pcie.Link, array *ssd.Array, registry *gds.Registry) *SSDOffloader {
	if registry == nil {
		registry = gds.NewRegistry(0)
	}
	wb, rb := gdsPathRates(link, array)
	return &SSDOffloader{
		tierBase: newTierBase(rec, name, link.Config().Latency+10*time.Microsecond, wb, rb),
		link:     link,
		array:    array,
		registry: registry,
	}
}

// Registry returns the GDS registration registry.
func (o *SSDOffloader) Registry() *gds.Registry { return o.registry }

// Reset clears the tier for reuse by a new simulation and rebinds the
// member devices to spec — the same (possibly bandwidth-share-derated)
// spec a fresh tier would be constructed with — recomputing the path
// bottleneck rates. The GDS registry is reset too: registrations belong
// to the finished run's storages.
func (o *SSDOffloader) Reset(spec ssd.Spec) {
	for _, d := range o.array.Devices() {
		d.Reset(spec)
	}
	o.array.Reset()
	o.link.Reset()
	o.registry.Reset()
	o.tierBase.reset()
	o.lnSteady = linkSteady{}
	for i := range o.devSteady {
		o.devSteady[i] = devSteady{}
	}
	o.writeBW, o.readBW = gdsPathRates(o.link, o.array)
}

// Arm installs (or, with the empty spec, removes) fault injection for
// the next run. Called once per Execute, after Reset: a reused arena
// whose previous run was faulted must be explicitly disarmed, so
// Session.Execute always calls Arm. The controller is rebuilt fresh each
// time — its wear ledger and death registration are run state.
func (o *SSDOffloader) Arm(spec faults.Spec) {
	if spec.Empty() {
		o.faults = nil
		o.array.SetFaults(nil)
		return
	}
	devs := o.array.Devices()
	dspec := devs[0].Spec()
	budget := ssd.NewArrayWear(dspec, len(devs)).Model.HostWriteBudget()
	steal := spec.RebuildSteal
	if steal == 0 {
		steal = faults.DefaultRebuildSteal
	}
	// Default rebuild time: rewriting one member's capacity with the
	// stolen slice of its sequential-write bandwidth.
	rebuild := faults.DefaultRebuildFor
	if dspec.Capacity > 0 && dspec.SeqWrite > 0 {
		rebuild = time.Duration(float64(dspec.SeqWrite.TimeFor(dspec.Capacity)) / steal)
	}
	o.ctl = faults.NewController(spec, len(devs), budget, rebuild)
	o.faults = &o.ctl
	o.array.SetFaults(o.faults)
}

// Faults returns the armed controller (nil when healthy).
func (o *SSDOffloader) Faults() *faults.Controller { return o.faults }

// EmitFaultSpans records the run's fault windows on the tier's store
// track, clamped to the measured horizon. Called once after a traced run
// completes — fault windows are known a priori or registered during the
// run, so emitting them post hoc cannot perturb the measurement.
func (o *SSDOffloader) EmitFaultSpans(horizon time.Duration) {
	if o.faults == nil || !o.rec.Enabled() || horizon <= 0 {
		return
	}
	clamp := func(t time.Duration) time.Duration {
		if t > horizon {
			return horizon
		}
		return t
	}
	if from, to, ok := o.faults.DegradeWindow(); ok && from < horizon {
		o.rec.Span(o.storeT, spans.KindFault, -1, "degrade", from, clamp(to), 0, 0)
	}
	if at, restored, failed, ok := o.faults.Death(); ok && at < horizon {
		if failed {
			o.rec.Span(o.storeT, spans.KindFault, -1, "array-failure", at, horizon, 0, 0)
			return
		}
		o.rec.Span(o.storeT, spans.KindFault, -1, "device-death", at, clamp(restored), 0, 0)
		o.rec.Span(o.storeT, spans.KindRebuild, -1, "rebuild", at, clamp(restored), 0, 0)
	}
}

// BlockStore exposes the byte store for verification tests.
func (o *SSDOffloader) BlockStore() *ssd.BlockStore[TensorID] { return o.store }

// Kind implements Tier.
func (o *SSDOffloader) Kind() TierKind { return TierNVMe }

// Capacity implements Tier: the array is effectively unbounded for
// activation working sets (tens of TB vs tens of GB).
func (o *SSDOffloader) Capacity() units.Bytes { return 0 }

// Store implements Offloader.
func (o *SSDOffloader) Store(id TensorID, t *tensor.Tensor, ready time.Duration) (time.Duration, time.Duration, error) {
	n := t.Bytes()
	bw := o.registry.EffectiveBandwidth(t.Storage(), o.writeBW)
	dur := o.latency + bw.TimeFor(n)
	if o.faults != nil {
		// Fault effects are functions of the transfer's start time, which
		// Submit would compute — evaluate it first, refuse on a failed
		// array, and only rewrite dur when degraded so the healthy path's
		// arithmetic (and byte-identity) is untouched.
		at := o.storeQ.StartFor(ready)
		if o.faults.FailedAt(at) {
			return 0, 0, &DeviceFailedError{Tier: o.name, At: at, Op: "store"}
		}
		if f := o.faults.Factor(at); f < 1 {
			dur = o.latency + units.Bandwidth(float64(bw)*f).TimeFor(n)
		}
	}
	finish := o.storeQ.Submit(ready, dur)
	start := finish - dur
	// Account the bytes on the underlying devices and link for
	// utilization and endurance reporting.
	o.array.Write(start, n)
	o.link.Down(start, n)
	o.writeBlock(id, t, n)
	if o.faults != nil {
		o.faults.NoteWrite(float64(n), finish)
	}
	if o.rec.Enabled() {
		name := spanStoreDirect
		if o.registry.PathFor(t.Storage()) == gds.Bounce {
			name = spanStoreBounce
		}
		o.rec.Span(o.storeT, spans.KindStore, -1, name, start, finish, n, id.FlowID())
	}
	return start, finish, nil
}

// Load implements Offloader.
func (o *SSDOffloader) Load(id TensorID, ready time.Duration) (time.Duration, time.Duration, []byte, error) {
	n, ok := o.store.Size(id)
	if !ok {
		return 0, 0, nil, &MissingBlockError{Tier: o.name, ID: id}
	}
	dur := o.latency + o.readBW.TimeFor(n)
	if o.faults != nil {
		at := o.loadQ.StartFor(ready)
		if o.faults.FailedAt(at) {
			// The data went down with the array: a load cannot spill.
			return 0, 0, nil, &DeviceFailedError{Tier: o.name, At: at, Op: "load"}
		}
		if f := o.faults.Factor(at); f < 1 {
			dur = o.latency + units.Bandwidth(float64(o.readBW)*f).TimeFor(n)
		}
	}
	finish := o.loadQ.Submit(ready, dur)
	start := finish - dur
	o.array.Read(start, n)
	o.link.Up(start, n)
	o.rec.Span(o.loadT, spans.KindLoad, -1, spanLoad, start, finish, n, id.FlowID())
	data, _ := o.store.ReadFile(id)
	return start, finish, data, nil
}

var _ Tier = (*SSDOffloader)(nil)

// CPUOffloader targets a pre-allocated pinned host-memory pool over the
// PCIe link — the paper's second offloader, intended for clusters with
// remote SSD storage (§III-A). The pool is sized by profiling the first
// training step.
type CPUOffloader struct {
	tierBase
	link *pcie.Link

	// capacity is the pinned pool size; zero means profiling mode (grow
	// freely and report the peak).
	capacity units.Bytes

	// lnSteady is the steady-state fold bookkeeping for the host DMA link
	// (steady.go).
	lnSteady linkSteady
}

// NewCPUOffloader builds a host-memory offloader. capacity of zero starts
// in profiling mode.
func NewCPUOffloader(rec *spans.Recorder, name string, link *pcie.Link, capacity units.Bytes) *CPUOffloader {
	return &CPUOffloader{
		tierBase: newTierBase(rec, name, link.Config().Latency, link.Effective(), link.Effective()),
		link:     link,
		capacity: capacity,
	}
}

// SetCapacity fixes the pool size after profiling.
func (o *CPUOffloader) SetCapacity(n units.Bytes) { o.capacity = n }

// Reset clears the tier for reuse by a new simulation and installs the
// new run's pool capacity (0 returns to profiling mode).
func (o *CPUOffloader) Reset(capacity units.Bytes) {
	o.link.Reset()
	o.tierBase.reset()
	o.lnSteady = linkSteady{}
	o.capacity = capacity
}

// Kind implements Tier.
func (o *CPUOffloader) Kind() TierKind { return TierDRAM }

// Capacity implements Tier: the configured pool size (0 = profiling).
func (o *CPUOffloader) Capacity() units.Bytes { return o.capacity }

// Store implements Offloader.
func (o *CPUOffloader) Store(id TensorID, t *tensor.Tensor, ready time.Duration) (time.Duration, time.Duration, error) {
	n := t.Bytes()
	// Overwrites replace the existing file in place, so the capacity
	// check is against net residency, not the transient double copy.
	used := o.store.Used()
	if prev, ok := o.store.Size(id); ok {
		used -= prev
	}
	if o.capacity > 0 && used+n > o.capacity {
		return 0, 0, &OverflowError{Tier: o.name, Used: used, Need: n, Capacity: o.capacity}
	}
	dur := o.latency + o.link.Effective().TimeFor(n)
	finish := o.storeQ.Submit(ready, dur)
	start := finish - dur
	o.link.Down(start, n)
	o.writeBlock(id, t, n)
	o.rec.Span(o.storeT, spans.KindStore, -1, spanStore, start, finish, n, id.FlowID())
	return start, finish, nil
}

// Load implements Offloader.
func (o *CPUOffloader) Load(id TensorID, ready time.Duration) (time.Duration, time.Duration, []byte, error) {
	n, ok := o.store.Size(id)
	if !ok {
		return 0, 0, nil, &MissingBlockError{Tier: o.name, ID: id}
	}
	dur := o.latency + o.link.Effective().TimeFor(n)
	finish := o.loadQ.Submit(ready, dur)
	start := finish - dur
	o.link.Up(start, n)
	o.rec.Span(o.loadT, spans.KindLoad, -1, spanLoad, start, finish, n, id.FlowID())
	data, _ := o.store.ReadFile(id)
	return start, finish, data, nil
}

var _ Tier = (*CPUOffloader)(nil)
