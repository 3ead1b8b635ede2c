package gpu

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"ssdtrain/internal/sim"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// Class tags an allocation with its role, so peaks can be reported per
// category the way the paper separates "activation memory peak" from the
// rest (Fig 6b measures activations only).
type Class uint8

// Allocation classes.
const (
	ClassWeights Class = iota
	ClassGradients
	ClassOptimizer
	ClassActivations
	ClassWorkspace
	classCount
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassWeights:
		return "weights"
	case ClassGradients:
		return "gradients"
	case ClassOptimizer:
		return "optimizer"
	case ClassActivations:
		return "activations"
	case ClassWorkspace:
		return "workspace"
	default:
		return fmt.Sprintf("class(%d)", c)
	}
}

// AllocHook observes allocator traffic. The GDS malloc hook implements it
// to register memory for the direct DMA path without replacing the
// allocator (the paper's LD_PRELOAD interposition).
type AllocHook interface {
	OnAlloc(s *tensor.Storage)
	OnFree(s *tensor.Storage)
}

// memEvent is a buffered level delta. It packs into 24 bytes, since the
// log holds several hundred per simulated step, so seq is 32-bit.
type memEvent struct {
	at    time.Duration
	delta units.Bytes
	seq   int32
	class Class
}

// Allocator is the device caching allocator model. Allocation and free
// calls carry virtual timestamps; because the training executor computes
// completion times out of chronological order (stores complete while later
// ops are being issued), events are buffered and applied in time order:
// FoldWindow applies those before a step's end once no later call can
// land there, Repeat applies a step's repeats, and Finalize the rest.
// The log holds only events not yet applied, so its size follows a
// step, not the run.
type Allocator struct {
	capacity units.Bytes
	events   []memEvent
	hooks    []AllocHook
	live     map[int64]memEvent
	seq      int32
	final    bool
	// run is the levels and peaks after the events applied so far, and
	// folded the time before which every event is applied (zero, where
	// virtual time starts, until the first fold): a later Alloc or Free
	// timed before it panics.
	run    levelRun
	folded time.Duration
	// liveBytes/liveCount are running totals over live, kept by Alloc,
	// Free and Reset so the per-step fold does not walk the map.
	liveBytes units.Bytes
	liveCount int

	// rec/memT emit instant alloc/free events (named by class) when the
	// flight recorder is on. Like the hooks, the wiring survives Reset.
	rec  *spans.Recorder
	memT spans.TrackID
}

// NewAllocator creates an allocator for a device with the given capacity,
// its live set sized for live storages, so a fresh arena's first step
// fills the table instead of regrowing it from empty.
func NewAllocator(capacity units.Bytes, live int) *Allocator {
	return &Allocator{capacity: capacity, live: make(map[int64]memEvent, live), memT: -1}
}

// SetRecorder attaches the flight recorder and registers the allocator's
// event track. Call at arena construction, before the first Alloc.
func (a *Allocator) SetRecorder(r *spans.Recorder) {
	a.rec = r
	a.memT = r.RegisterTrack("gpu.mem")
}

// AddHook attaches an allocation observer.
func (a *Allocator) AddHook(h AllocHook) { a.hooks = append(a.hooks, h) }

// Reserve makes room in the event log for n more events. A log that must
// grow grows to exactly that size, not by append's doubling, so a fresh
// arena that reserves its step up front keeps no slack. A log with room
// is left alone.
func (a *Allocator) Reserve(n int) {
	if n <= cap(a.events)-len(a.events) {
		return
	}
	evs := make([]memEvent, len(a.events), len(a.events)+n)
	copy(evs, a.events)
	a.events = evs
}

// Events returns how many events the log holds and how many it has room
// for.
func (a *Allocator) Events() (n, capacity int) { return len(a.events), cap(a.events) }

// nextSeq numbers the next event. No simulation comes near 2^31 events
// (a 10k-step full simulation logs a few million), but a wrapped number
// would silently reorder the log, so overflow panics.
func (a *Allocator) nextSeq() int32 {
	if a.seq == math.MaxInt32 {
		panic("gpu: event log overflow")
	}
	a.seq++
	return a.seq
}

// Reset discards the recorded run (events, live set, folded levels) for
// reuse by a new simulation on the same arena. Attached hooks survive —
// they are wiring, not run state — and the event buffer's capacity is
// retained so a replayed run appends without growing.
func (a *Allocator) Reset() {
	a.events = a.events[:0]
	clear(a.live)
	a.liveBytes, a.liveCount = 0, 0
	a.seq = 0
	a.final = false
	a.run, a.folded = levelRun{}, 0
}

// checkTime panics on an event timed before the folded point: its place
// in the (at, seq) order has already been applied.
func (a *Allocator) checkTime(at time.Duration) {
	if at < a.folded {
		panic(fmt.Sprintf("gpu: event at %v before the folded point %v", at, a.folded))
	}
}

// Alloc records that storage s of the given class is resident from virtual
// time at.
func (a *Allocator) Alloc(at time.Duration, s *tensor.Storage, class Class) {
	if a.final {
		panic("gpu: Alloc after Finalize")
	}
	if _, ok := a.live[s.Seq()]; ok {
		panic(fmt.Sprintf("gpu: double alloc of storage %d", s.Seq()))
	}
	a.checkTime(at)
	ev := memEvent{at: at, delta: s.Bytes(), class: class, seq: a.nextSeq()}
	a.live[s.Seq()] = ev
	a.liveBytes += ev.delta
	a.liveCount++
	a.events = append(a.events, ev)
	a.rec.Span(a.memT, spans.KindAlloc, -1, class.String(), at, at, s.Bytes(), 0)
	for _, h := range a.hooks {
		h.OnAlloc(s)
	}
}

// Free records that storage s is released at virtual time at.
func (a *Allocator) Free(at time.Duration, s *tensor.Storage) {
	if a.final {
		panic("gpu: Free after Finalize")
	}
	ev, ok := a.live[s.Seq()]
	if !ok {
		panic(fmt.Sprintf("gpu: free of unknown storage %d", s.Seq()))
	}
	if at < ev.at {
		// Stream-ordered free: the host may drop its last reference before
		// the producing kernel has even started (the host runs ahead of
		// the device), but the memory cannot be reused before the
		// allocation point. Clamp, as the CUDA caching allocator does.
		at = ev.at
	}
	a.checkTime(at)
	delete(a.live, s.Seq())
	a.liveBytes -= ev.delta
	a.liveCount--
	a.events = append(a.events, memEvent{at: at, delta: -ev.delta, class: ev.class, seq: a.nextSeq()})
	a.rec.Span(a.memT, spans.KindFree, -1, ev.class.String(), at, at, ev.delta, 0)
	for _, h := range a.hooks {
		h.OnFree(s)
	}
}

// LiveBytes returns the bytes currently allocated (ignoring timestamps),
// useful for leak assertions at the end of a step.
func (a *Allocator) LiveBytes() units.Bytes { return a.liveBytes }

// LiveCount returns the number of live storages.
func (a *Allocator) LiveCount() int { return a.liveCount }

// EventMark returns a position in the event buffer; the half-open range
// [mark, EventMark()) taken later identifies the events appended in
// between. Marks are invalidated by Reset, FoldWindow and Repeat.
func (a *Allocator) EventMark() int { return len(a.events) }

// FoldTail folds the events appended since mark into sig, with timestamps
// taken relative to origin, plus a summary of the live set. Two steps of a
// periodic workload fold identically exactly when their allocation traffic
// is a time-shifted copy — the property the steady-state fast path's
// Repeat relies on.
func (a *Allocator) FoldTail(sig *sim.Sig, mark int, origin time.Duration) {
	tail := a.events[mark:]
	sig.FoldInt(int64(len(tail)))
	for _, ev := range tail {
		sig.Fold(uint64(ev.class))
		sig.FoldInt(int64(ev.delta))
		sig.FoldDur(ev.at - origin)
	}
	sig.FoldInt(int64(a.liveCount))
	sig.FoldInt(int64(a.liveBytes))
}

// MemReport summarizes memory behaviour over a run.
type MemReport struct {
	Capacity  units.Bytes
	PeakTotal units.Bytes
	PeakAt    time.Duration
	// PeakByClass is each class's own maximum (maxima of different classes
	// may occur at different times).
	PeakByClass [classCount]units.Bytes
	// ClassAtTotalPeak is each class's level at the moment of the total
	// peak; it sums to PeakTotal.
	ClassAtTotalPeak [classCount]units.Bytes
	// Overflowed reports whether the total ever exceeded capacity (OOM on
	// real hardware).
	Overflowed bool
}

// PeakActivations returns the activation-class peak (the paper's Fig 6b
// metric).
func (r MemReport) PeakActivations() units.Bytes {
	return r.PeakByClass[ClassActivations]
}

// Window is a half-open virtual-time interval [Start, End) of the run.
// FoldWindow, Repeat or Finalize fills Total and Act with the highest
// total and activation-class levels reached in it, counting the level
// carried in at Start: a training step's memory peaks (Fig 6b) when the
// window is the step.
type Window struct {
	Start, End time.Duration
	Total, Act units.Bytes
}

// FoldWindow applies the buffered events before w.End in (at, seq) order
// and fills w's peaks, keeping only the later events. The caller promises
// that no event before w.End is still to come: a later Alloc or Free
// timed before it panics. A training step's events land at or after the
// step's start, and steps are contiguous, so a step's window folds once
// the next step is about to run. Windows fold in order and must not
// overlap; Finalize then takes the windows after the last folded one.
// Marks taken before a fold are invalid after it.
func (a *Allocator) FoldWindow(w *Window) {
	if a.final {
		panic("gpu: FoldWindow after Finalize")
	}
	if w.Start < a.folded {
		panic(fmt.Sprintf("gpu: window at %v before the folded point %v", w.Start, a.folded))
	}
	evs := a.events
	sortEvents(evs)
	k := a.run.window(evs, w)
	a.events = evs[:copy(evs, evs[k:])]
	a.folded = w.End
}

// Repeat folds steps[0], the exemplar step whose events were recorded
// since mark, and then steps[1:], its repeats: repeat j records the
// exemplar's events shifted j periods on, the period being the
// exemplar's length. It panics unless the steps are contiguous and one
// period long each, and every exemplar event is timed at or after its
// step's start, as a training step's are. Every step's window gets its
// peaks; Finalize then takes none of them.
//
// When the exemplar leaves pending the events pending before it shifted
// one period on, and nets every class to zero, each repeat applies the
// exemplar's deltas in the exemplar's order from the exemplar's levels.
// So it reaches the exemplar's peaks, it cannot raise the report (a peak
// keeps its first occurrence), and it leaves the pending events one
// period further on: Repeat copies the peaks and shifts the pending
// events, recording nothing. Any other exemplar is repeated for real,
// each repeat's events appended and folded, which is exact too.
//
// Recorder spans and hooks do not fire for repeats: the fast path runs
// only with the flight recorder off, and its caller extrapolates
// hook-driven accounting from per-cycle counter deltas.
func (a *Allocator) Repeat(mark int, steps []Window) {
	if a.final {
		panic("gpu: Repeat after Finalize")
	}
	ex := steps[0]
	period := ex.End - ex.Start
	for j := 1; j < len(steps); j++ {
		if steps[j].Start != steps[j-1].End || steps[j].End-steps[j].Start != period {
			panic(fmt.Sprintf("gpu: repeat [%v, %v) is not the period after [%v, %v)", steps[j].Start, steps[j].End, steps[j-1].Start, steps[j-1].End))
		}
	}
	cyc := a.events[mark:]
	sortEvents(a.events[:mark])
	sortEvents(cyc)
	if len(cyc) > 0 && cyc[0].at < ex.Start {
		panic(fmt.Sprintf("gpu: exemplar event at %v before its step's start %v", cyc[0].at, ex.Start))
	}
	if !a.periodic(mark, ex.End, period) {
		cyc = slices.Clone(cyc)
		a.FoldWindow(&steps[0])
		for j := 1; j < len(steps); j++ {
			shift := time.Duration(j) * period
			for _, ev := range cyc {
				a.events = append(a.events, memEvent{at: ev.at + shift, delta: ev.delta, class: ev.class, seq: a.nextSeq()})
			}
			a.FoldWindow(&steps[j])
		}
		return
	}
	a.FoldWindow(&steps[0])
	for j := 1; j < len(steps); j++ {
		steps[j].Total, steps[j].Act = steps[0].Total, steps[0].Act
	}
	shift := time.Duration(len(steps)-1) * period
	for i := range a.events {
		a.events[i].at += shift
	}
	a.folded = steps[len(steps)-1].End
}

// periodic reports whether the exemplar at events[mark:] nets every
// class to zero and leaves pending past end the events before mark
// shifted one period on. Both halves of the log are sorted; in the
// (at, seq) order the fold applies, an event before mark precedes an
// exemplar event at the same time.
func (a *Allocator) periodic(mark int, end, period time.Duration) bool {
	pre, cyc := a.events[:mark], a.events[mark:]
	var net [classCount]units.Bytes
	for _, ev := range cyc {
		net[ev.class] += ev.delta
	}
	if net != [classCount]units.Bytes{} {
		return false
	}
	pending := func(evs []memEvent) int {
		i, _ := slices.BinarySearchFunc(evs, end, func(ev memEvent, t time.Duration) int { return cmp.Compare(ev.at, t) })
		return i
	}
	i, k := pending(pre), pending(cyc)
	if len(pre)-i+len(cyc)-k != len(pre) {
		return false
	}
	for _, p := range pre {
		var ev memEvent
		if k == len(cyc) || i < len(pre) && pre[i].at <= cyc[k].at {
			ev, i = pre[i], i+1
		} else {
			ev, k = cyc[k], k+1
		}
		if ev.at != p.at+period || ev.delta != p.delta || ev.class != p.class {
			return false
		}
	}
	return true
}

// Finalize applies the buffered events in (at, seq) order and returns
// the run's peaks, counting the events FoldWindow and Repeat applied
// before it. It fills each window's peaks on the way; windows must be
// sorted by Start, must not overlap, and must follow every folded one.
// Finalize may be called once; further allocator use panics, and so does
// a class level going negative, which only a bug can produce.
func (a *Allocator) Finalize(windows []Window) MemReport {
	if a.final {
		panic("gpu: Finalize called twice")
	}
	a.final = true
	// Sorting in place is safe: the allocator is terminal after Finalize
	// (until Reset, which discards the buffer's contents anyway), and
	// skipping the defensive copy keeps Finalize off the sweep allocation
	// budget.
	evs := a.events
	sortEvents(evs)
	r := &a.run
	r.rep.Capacity = a.capacity
	// One merged pass: windows and events are both sorted, so each window
	// takes the level carried in at its start and the levels after the
	// events inside it.
	k := 0
	for i := range windows {
		k += r.window(evs[k:], &windows[i])
	}
	for ; k < len(evs); k++ {
		r.apply(evs[k])
	}
	r.rep.Overflowed = r.rep.PeakTotal > a.capacity
	return r.rep
}

func sortEvents(evs []memEvent) {
	// seq is unique per event, so (at, seq) is a total order and an
	// unstable sort yields the same permutation a stable one would.
	slices.SortFunc(evs, func(x, y memEvent) int {
		if x.at != y.at {
			return cmp.Compare(x.at, y.at)
		}
		return cmp.Compare(x.seq, y.seq)
	})
}

// levels is a (total, activation-class) level pair, the two levels a
// Window reports.
type levels struct{ total, act units.Bytes }

func (l levels) max(o levels) levels { return levels{max(l.total, o.total), max(l.act, o.act)} }

// levelRun is the running state over the events: the levels after the
// events applied so far, and the report's peaks.
type levelRun struct {
	rep     MemReport
	total   units.Bytes
	byClass [classCount]units.Bytes
}

func (r *levelRun) apply(ev memEvent) {
	r.total += ev.delta
	r.byClass[ev.class] += ev.delta
	if r.byClass[ev.class] < 0 {
		panic(fmt.Sprintf("gpu: %v level went negative (%v) at %v", ev.class, r.byClass[ev.class], ev.at))
	}
	if r.total > r.rep.PeakTotal {
		r.rep.PeakTotal = r.total
		r.rep.PeakAt = ev.at
		r.rep.ClassAtTotalPeak = r.byClass
	}
	r.rep.PeakByClass[ev.class] = max(r.rep.PeakByClass[ev.class], r.byClass[ev.class])
}

func (r *levelRun) levels() levels { return levels{r.total, r.byClass[ClassActivations]} }

// window applies the sorted events before w.End, fills w's peaks and
// returns how many events it applied.
func (r *levelRun) window(evs []memEvent, w *Window) int {
	k := 0
	for k < len(evs) && evs[k].at < w.Start {
		r.apply(evs[k])
		k++
	}
	pk := r.levels()
	for k < len(evs) && evs[k].at < w.End {
		r.apply(evs[k])
		k++
		pk = pk.max(r.levels())
	}
	w.Total, w.Act = pk.total, pk.act
	return k
}
