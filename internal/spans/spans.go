// Package spans is the simulator's flight recorder: typed, timestamped
// spans captured from every simulated resource — GPU compute kernels,
// PCIe DMA transfers, per-device NVMe queue service, offload-tier store
// and load queues, allocator events, and compute stalls — plus named
// counters for events that carry no timestamp (GDS registrations, tier
// placement decisions).
//
// The recorder is built for the experiment harness's two invariants:
//
//   - Zero overhead when disabled. Every emission method is nil-receiver
//     safe and guards on the enabled flag before touching any state, so
//     the instrumented hot paths cost one predictable branch and allocate
//     nothing when tracing is off.
//   - No perturbation when enabled. Emissions only read values the
//     substrates already computed (a span's start is derived from the
//     FIFO server's returned finish time), never schedule events or
//     advance clocks, so a traced run's RunResult is byte-identical to an
//     untraced one.
//
// The span buffer is a pooled ring: capacity is allocated once, Reset
// rewinds the buffer in place while keeping tracks and capacity, and when
// a run overflows the capacity the oldest spans are overwritten (counted
// in Dropped) rather than growing without bound.
package spans

import (
	"sync/atomic"
	"time"

	"ssdtrain/internal/units"
)

// TrackID identifies one resource timeline (a Chrome trace "thread").
// Tracks are registered at substrate construction, never on the hot path.
// The zero recorder hands out -1, which emissions on it ignore.
type TrackID int32

// Kind classifies a span.
type Kind uint8

// Span kinds.
const (
	// KindForward is a forward kernel on the compute stream.
	KindForward Kind = iota
	// KindBackward is a backward kernel.
	KindBackward
	// KindRecompute is a checkpoint-recomputation forward kernel.
	KindRecompute
	// KindOptimizer is a per-weight optimizer update kernel.
	KindOptimizer
	// KindAccum is a gradient-accumulation read-modify-write kernel.
	KindAccum
	// KindStall is compute idle time: the device waits on saved-tensor
	// data that is still loading. The span name carries the cause.
	KindStall
	// KindDMA is a PCIe link transfer (one direction of one link).
	KindDMA
	// KindNVMe is one NVMe device queue servicing its share of a striped
	// array transfer.
	KindNVMe
	// KindStore is an offload-tier store ("thread pool" write queue).
	KindStore
	// KindLoad is an offload-tier load (read queue).
	KindLoad
	// KindAlloc/KindFree are instant allocator events; the span name is
	// the allocation class.
	KindAlloc
	KindFree
	// KindFault marks an injected fault window (device death, scheduled
	// degradation) on the affected tier's track.
	KindFault
	// KindRebuild is RAID-rebuild background traffic stealing bandwidth
	// from foreground transfers after a member death.
	KindRebuild
	// KindOptimOffload is one offloaded optimizer update executing on the
	// host-side update engine (the ZeRO-Offload CPU optimizer).
	KindOptimOffload
	// KindOptimOverlap is the optimizer pipeline's drain window past a
	// step's end — the work the overlap schedule hides behind fwd(t+1).
	KindOptimOverlap
)

// String names the kind (Chrome trace category).
func (k Kind) String() string {
	switch k {
	case KindForward:
		return "fwd"
	case KindBackward:
		return "bwd"
	case KindRecompute:
		return "recompute"
	case KindOptimizer:
		return "optim"
	case KindAccum:
		return "accum"
	case KindStall:
		return "stall"
	case KindDMA:
		return "dma"
	case KindNVMe:
		return "nvme"
	case KindStore:
		return "store"
	case KindLoad:
		return "load"
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	case KindFault:
		return "fault"
	case KindRebuild:
		return "rebuild"
	case KindOptimOffload:
		return "optim-offload"
	case KindOptimOverlap:
		return "optim-overlap"
	default:
		return "span"
	}
}

// Compute reports whether the kind occupies the GPU compute stream.
func (k Kind) Compute() bool {
	switch k {
	case KindForward, KindBackward, KindRecompute, KindOptimizer, KindAccum:
		return true
	}
	return false
}

// IO reports whether the kind occupies an I/O resource (PCIe, NVMe, a
// tier queue, or the host-side optimizer engine). Offloaded optimizer
// work classifies as I/O: it runs off the GPU, so its intersection with
// compute-kind spans is exactly the update time hidden behind fwd(t+1).
func (k Kind) IO() bool {
	switch k {
	case KindDMA, KindNVMe, KindStore, KindLoad, KindRebuild, KindOptimOffload, KindOptimOverlap:
		return true
	}
	return false
}

// Span is one recorded interval on a track. Start and End are virtual
// times; alloc/free events are instants (Start == End). Block is the
// module index for compute spans (-1 when not applicable). Flow links an
// offload store to the reloads of the same tensor (0 = no flow).
type Span struct {
	Track TrackID
	Kind  Kind
	Block int32
	Name  string
	Start time.Duration
	End   time.Duration
	Bytes units.Bytes
	Flow  uint64
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// DefaultCapacity is the ring capacity NewRecorder uses for cap <= 0:
// generous for any single measured run (a paper-scale step emits a few
// thousand spans) while bounding a runaway run's memory.
const DefaultCapacity = 1 << 18

// Recorder captures spans into a pooled ring buffer. It is single-owner
// (one simulation arena) and not safe for concurrent use — exactly like
// the substrates that emit to it. A nil *Recorder is valid and inert, so
// substrates constructed without one need no branches at wiring time.
//
// The recorder survives arena resets by design: Session.Execute calls
// Reset (rewind the ring, keep tracks and capacity) rather than
// reconstructing, so a reused arena traces identically to a fresh one.
type Recorder struct {
	on      bool
	cap     int
	head    int
	dropped uint64
	tracks  []string
	spans   []Span
	counts  map[string]int64
}

// NewRecorder builds a disabled recorder with the given ring capacity
// (<= 0 uses DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity, tracks: make([]string, 0, trackRoom), counts: make(map[string]int64)}
}

// trackRoom is the track table's first size. An arena registers 2 to 23
// tracks on the strategy presets (the GPU's two, two per PCIe link and
// tier queue, two per NVMe device, the optimizer's update), so its
// registrations fill one table instead of doubling one from empty.
const trackRoom = 32

// Enabled reports whether the recorder is capturing. Safe on nil.
func (r *Recorder) Enabled() bool { return r != nil && r.on }

// Enable starts capturing. Safe on nil (no-op).
func (r *Recorder) Enable() {
	if r != nil {
		r.on = true
	}
}

// Disable stops capturing without discarding what was recorded.
func (r *Recorder) Disable() {
	if r != nil {
		r.on = false
	}
}

// RegisterTrack returns the ID for a named track, creating it if new.
// Registration happens at substrate construction (never on the hot path)
// and tracks survive Reset — they are wiring, not run state.
func (r *Recorder) RegisterTrack(name string) TrackID {
	if r == nil {
		return -1
	}
	for i, t := range r.tracks {
		if t == name {
			return TrackID(i)
		}
	}
	r.tracks = append(r.tracks, name)
	return TrackID(len(r.tracks) - 1)
}

// RegisterPair registers the tracks name+a and name+b, the two
// directions of one substrate, building both names in one allocation.
func (r *Recorder) RegisterPair(name, a, b string) (TrackID, TrackID) {
	if r == nil {
		return -1, -1
	}
	names := name + a + name + b
	n := len(name) + len(a)
	return r.RegisterTrack(names[:n]), r.RegisterTrack(names[n:])
}

// Tracks returns the registered track names (shared slice; do not mutate).
func (r *Recorder) Tracks() []string {
	if r == nil {
		return nil
	}
	return r.tracks
}

// Span records one interval. The first branch is the entire disabled-path
// cost; arguments must be values the caller already has (no formatting).
func (r *Recorder) Span(track TrackID, kind Kind, block int32, name string, start, end time.Duration, bytes units.Bytes, flow uint64) {
	if r == nil || !r.on || track < 0 {
		return
	}
	r.emit(Span{Track: track, Kind: kind, Block: block, Name: name, Start: start, End: end, Bytes: bytes, Flow: flow})
}

// Count bumps a named counter — for recorder-visible events that carry no
// virtual timestamp (GDS registrations, tier placement decisions).
func (r *Recorder) Count(name string, n int64) {
	if r == nil || !r.on {
		return
	}
	r.counts[name] += n
}

// emit appends into the ring, overwriting the oldest span when full.
func (r *Recorder) emit(s Span) {
	if len(r.spans) < r.cap {
		r.spans = append(r.spans, s)
		return
	}
	r.spans[r.head] = s
	r.head++
	if r.head == r.cap {
		r.head = 0
	}
	r.dropped++
}

// Len reports how many spans are currently buffered.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Dropped reports how many spans the ring overwrote since the last Reset.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Reset rewinds the ring and counters for a new run. Tracks, the buffer's
// capacity and its backing array survive — that is what makes a recorder
// on a recycled arena trace byte-identically to a fresh one without
// reallocating.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.spans = r.spans[:0]
	r.head = 0
	r.dropped = 0
	clear(r.counts)
}

// Trace is an immutable snapshot of one run's recording, carried on the
// RunResult so the live recorder can be reset for the arena's next run.
type Trace struct {
	// Tracks maps TrackID to resource name.
	Tracks []string
	// Spans are in emission order (monotone per track, interleaved across
	// tracks by host issue order).
	Spans []Span
	// Counts are the named counters at the end of the run.
	Counts map[string]int64
	// Dropped is how many spans the ring overwrote during the run.
	Dropped uint64
}

// Snapshot clones the recording into an immutable Trace, unrolling the
// ring into emission order, and folds the recorder's counters into the
// package-wide totals surfaced by Totals (the /metrics span counters).
func (r *Recorder) Snapshot() *Trace {
	if r == nil {
		return nil
	}
	t := &Trace{
		Tracks:  append([]string(nil), r.tracks...),
		Spans:   make([]Span, 0, len(r.spans)),
		Counts:  make(map[string]int64, len(r.counts)),
		Dropped: r.dropped,
	}
	t.Spans = append(t.Spans, r.spans[r.head:]...)
	t.Spans = append(t.Spans, r.spans[:r.head]...)
	for k, v := range r.counts {
		t.Counts[k] = v
	}
	totSnapshots.Add(1)
	totSpans.Add(uint64(len(t.Spans)))
	totDropped.Add(r.dropped)
	return t
}

// GlobalStats aggregates recorder activity process-wide, so an observer
// (the serve /metrics endpoint) can report tracing volume without holding
// references to per-arena recorders.
type GlobalStats struct {
	// Snapshots counts completed traced runs.
	Snapshots uint64
	// Spans counts spans delivered across all snapshots.
	Spans uint64
	// Dropped counts spans lost to ring overwrites across all snapshots.
	Dropped uint64
}

var (
	totSnapshots atomic.Uint64
	totSpans     atomic.Uint64
	totDropped   atomic.Uint64
)

// Totals returns the process-wide recorder counters.
func Totals() GlobalStats {
	return GlobalStats{
		Snapshots: totSnapshots.Load(),
		Spans:     totSpans.Load(),
		Dropped:   totDropped.Load(),
	}
}
