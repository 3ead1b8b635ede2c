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
// land there, and Finalize the rest. The log holds only events not yet
// applied, so its size follows a step, not the run.
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

	// replN > 0 marks a pending virtual replication (ReplicateTail): the
	// replLen events numbered replSeq and up, the last cycle, repeat replN
	// more times at replPeriod spacing, and Finalize applies the copies
	// analytically, without ever materializing them. The cycle stays in
	// the log, which Finalize sorts anyway, so the cycle is read back in
	// (at, seq) order by its sequence numbers rather than copied out.
	// replStart is its earliest event. A later Alloc or Free materializes
	// the copies first so event ordering stays exact.
	replSeq    int32
	replLen    int
	replStart  time.Duration
	replN      int
	replPeriod time.Duration

	// rec/memT emit instant alloc/free events (named by class) when the
	// flight recorder is on. Like the hooks, the wiring survives Reset.
	rec  *spans.Recorder
	memT spans.TrackID
}

// NewAllocator creates an allocator for a device with the given capacity.
func NewAllocator(capacity units.Bytes) *Allocator {
	return &Allocator{capacity: capacity, live: make(map[int64]memEvent), memT: -1}
}

// SetRecorder attaches the flight recorder and registers the allocator's
// event track. Call at arena construction, before the first Alloc.
func (a *Allocator) SetRecorder(r *spans.Recorder) {
	a.rec = r
	a.memT = r.RegisterTrack("gpu.mem")
}

// AddHook attaches an allocation observer.
func (a *Allocator) AddHook(h AllocHook) { a.hooks = append(a.hooks, h) }

// PresizeLive sizes the live set for n storages, so a fresh arena's
// first step fills the table instead of regrowing it from empty. Call it
// before the first Alloc.
func (a *Allocator) PresizeLive(n int) {
	if len(a.live) > 0 {
		panic("gpu: PresizeLive on a live allocator")
	}
	a.live = make(map[int64]memEvent, n)
}

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

// Reset discards the recorded run (events, live set, folded levels,
// pending replication) for reuse by a new simulation on the same arena.
// Attached hooks survive — they are wiring, not run state — and the event
// buffer's capacity is retained so a replayed run appends without growing.
func (a *Allocator) Reset() {
	a.events = a.events[:0]
	clear(a.live)
	a.liveBytes, a.liveCount = 0, 0
	a.seq = 0
	a.final = false
	a.run, a.folded = levelRun{}, 0
	a.replN = 0
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
	a.materializeRepl()
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
	a.materializeRepl()
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
// between. Marks are invalidated by Reset and FoldWindow.
func (a *Allocator) EventMark() int { return len(a.events) }

// FoldTail folds the events appended since mark into sig, with timestamps
// taken relative to origin, plus a summary of the live set. Two steps of a
// periodic workload fold identically exactly when their allocation traffic
// is a time-shifted copy — the property the steady-state fast path's
// ReplicateTail relies on.
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

// ReplicateTail records that the events appended since mark repeat n more
// times, copy j shifted by j×period. The copies are virtual: Finalize
// applies them analytically — one cycle's level profile is computed once
// and every copy's peaks, and every window's, follow from it by pure
// arithmetic — which is what makes a 10k-step extrapolated run cost a few
// warm-up steps instead of materializing millions of identical events.
// The synthesized outcome is byte-identical to really appending the
// copies: within a copy the events are applied in (at, seq) order, copies
// cannot overlap when the cycle's span fits the period, and integer level
// arithmetic is exact. A later Alloc or Free materializes the pending
// copies first, and a cycle whose span exceeds the period (a backdated
// event straddling blocks), or a period that is not positive, is
// materialized immediately so overlapping copies still go through the
// full sort.
// Recorder spans and hooks do not fire for the copies: replication is only
// used when the flight recorder is off, and hook-driven accounting is
// extrapolated by the caller from per-cycle counter deltas.
func (a *Allocator) ReplicateTail(mark, n int, period time.Duration) {
	if a.final {
		panic("gpu: ReplicateTail after Finalize")
	}
	a.materializeRepl()
	tail := a.events[mark:]
	if len(tail) == 0 || n <= 0 {
		return
	}
	first, last := tail[0].at, tail[0].at
	for _, ev := range tail[1:] {
		first, last = min(first, ev.at), max(last, ev.at)
	}
	a.replSeq, a.replLen, a.replStart = tail[0].seq, len(tail), first
	a.replN = n
	a.replPeriod = period
	if period <= 0 || last-first > period {
		a.materializeRepl()
	}
}

// materializeRepl turns a pending virtual replication into real events
// (Finalize then sorts everything), restoring exact event-buffer
// semantics for the rare callers that keep allocating after
// ReplicateTail or replicate an over-long cycle. No-op without one.
// Each copy's events take their numbers in the order the cycle's events
// sit in the log. That is recording order, or (at, seq) order when
// Finalize has sorted it, and both order events with equal times the
// same way, so the sorted log comes out the same.
func (a *Allocator) materializeRepl() {
	if a.replN == 0 {
		return
	}
	n, evs := a.replN, a.events
	a.replN = 0
	a.Reserve(n * a.replLen)
	for j := 1; j <= n; j++ {
		shift := time.Duration(j) * a.replPeriod
		for _, ev := range evs {
			if ev.seq >= a.replSeq {
				a.events = append(a.events, memEvent{at: ev.at + shift, delta: ev.delta, class: ev.class, seq: a.nextSeq()})
			}
		}
	}
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
// FoldWindow or Finalize fills Total and Act with the highest total and
// activation-class levels reached in it, counting the level carried in
// at Start: a training step's memory peaks (Fig 6b) when the window is
// the step.
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
	a.materializeRepl()
	evs := a.events
	sortEvents(evs)
	k := a.run.window(evs, w)
	a.events = evs[:copy(evs, evs[k:])]
	a.folded = w.End
}

// Finalize applies the buffered events in (at, seq) order, with any
// pending replication in closed form, and returns the run's peaks,
// counting the events FoldWindow applied before it. It fills each
// window's peaks on the way; windows must be sorted by Start, must not
// overlap, and must follow every folded one. Finalize may be called once;
// further allocator use panics, and so does a class level going negative,
// which only a bug can produce.
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
	// A pending virtual replication (ReplicateTail) is valid only when the
	// copies land strictly after every real event; an event sorting past
	// the first copy's start would interleave, so fall back to really
	// appending the copies and re-sorting. The span-fits-period check in
	// ReplicateTail makes this unreachable in practice.
	if a.replN > 0 && len(evs) > 0 && evs[len(evs)-1].at > a.replStart+a.replPeriod {
		a.materializeRepl()
		evs = a.events
		sortEvents(evs)
	}
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
	if a.replN > 0 {
		a.replicate(r, evs, windows)
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
func (l levels) add(o levels) levels { return levels{l.total + o.total, l.act + o.act} }

// levelRun is the running state over the real events: the levels after
// the events applied so far, and the report's peaks.
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

// replicate folds the replN pending copies of the cycle into the report
// and the windows in closed form. evs is the sorted log, every event of
// it applied. Copy j (1-based) applies the cycle shifted by j×period on
// top of the level base + (j-1)×net, where base is the level after the
// real events and net the cycle's own: every level is affine in j, so
// each peak is taken at the first or the last copy, and integer
// arithmetic keeps it exact. The strict comparisons reproduce an
// event-by-event fold's first-occurrence tie-breaking.
func (a *Allocator) replicate(r *levelRun, evs []memEvent, windows []Window) {
	rep, n := &r.rep, a.replN
	// The cycle's events, compacted in (at, seq) order to the front of
	// the log: the log is terminal, so the prefix it has applied is free
	// room, and the cycle needs no copy.
	cyc := evs[:0]
	for _, ev := range evs {
		if ev.seq >= a.replSeq {
			cyc = append(cyc, ev)
		}
	}
	// One pass over the cycle: its running levels and their maximum, the
	// total's peak with its first time and class snapshot, and each
	// class's net, highest and lowest running level.
	var run levels
	top := minLevels
	var peakAt time.Duration
	// net ends as each class's net per cycle; hi and lo start from the
	// carry-in level, which is a real level too.
	var net, hi, lo, peakSnap [classCount]units.Bytes
	for _, ev := range cyc {
		run = run.plus(ev)
		net[ev.class] += ev.delta
		hi[ev.class] = max(hi[ev.class], net[ev.class])
		lo[ev.class] = min(lo[ev.class], net[ev.class])
		if run.total > top.total {
			peakAt, peakSnap = ev.at, net
		}
		top = top.max(run)
	}

	jStar := 1
	if run.total > 0 {
		jStar = n
	}
	if cand := r.total + units.Bytes(jStar-1)*run.total + top.total; cand > rep.PeakTotal {
		rep.PeakTotal = cand
		rep.PeakAt = peakAt + time.Duration(jStar)*a.replPeriod
		for c := range rep.ClassAtTotalPeak {
			rep.ClassAtTotalPeak[c] = r.byClass[c] + units.Bytes(jStar-1)*net[c] + peakSnap[c]
		}
	}
	for c := Class(0); c < classCount; c++ {
		jHi, jLo := 1, 1
		if net[c] > 0 {
			jHi = n
		} else if net[c] < 0 {
			jLo = n
		}
		rep.PeakByClass[c] = max(rep.PeakByClass[c], r.byClass[c]+units.Bytes(jHi-1)*net[c]+hi[c])
		if low := r.byClass[c] + units.Bytes(jLo-1)*net[c] + lo[c]; low < 0 {
			panic(fmt.Sprintf("gpu: %v level went negative (%v) in replicated cycle %d", c, low, jLo))
		}
	}

	cp := copies{cyc: cyc, n: n, period: a.replPeriod, base: r.levels(), net: run, top: top, last: cut{i1: -1}}
	first := cyc[0].at + a.replPeriod
	for i := range windows {
		w := &windows[i]
		if w.End <= first {
			continue
		}
		j1, i1 := cp.pos(w.Start)
		j2, i2 := cp.pos(w.End)
		k := cp.cutAt(i1, i2)
		pk := levels{w.Total, w.Act}
		if j1 > 1 || i1 > 0 {
			// Copies precede the window, so its carry-in level is theirs.
			pk = cp.offset(j1).add(k.carry)
		}
		if m, ok := cp.peak(j1, i1, j2, i2, k); ok {
			pk = pk.max(m)
		}
		w.Total, w.Act = pk.total, pk.act
	}
}

// minLevels is below any level: the first max with it takes the other
// side.
var minLevels = levels{math.MinInt64, math.MinInt64}

// plus returns the levels after applying ev.
func (l levels) plus(ev memEvent) levels {
	l.total += ev.delta
	if ev.class == ClassActivations {
		l.act += ev.delta
	}
	return l
}

// copies views replN virtual copies of a cycle. Copies never overlap:
// the cycle spans at most one period, so in (at, seq) order copy j's
// events all precede copy j+1's, and a position in the replicated
// stream is a (copy, index) pair.
type copies struct {
	cyc       []memEvent // the cycle in (at, seq) order
	n         int
	period    time.Duration
	base, net levels
	// top is the cycle's highest running levels.
	top levels
	// last is the last cut cutAt scanned; i1 -1 before the first.
	last cut
}

// cut is what a window cutting each copy at indices i1 and i2 needs:
// the running level carried in before i1, and the highest running levels
// over [i1, n), over [0, i2) and over [i1, i2).
type cut struct {
	i1, i2               int
	carry, suf, pre, mid levels
}

// cutAt scans the cycle once for cut (i1, i2). Step windows lie a whole
// period apart, so they all cut the cycle at the same two indices: the
// last cut is kept, and a run's windows cost one scan, not one each.
func (c *copies) cutAt(i1, i2 int) cut {
	if c.last.i1 == i1 && c.last.i2 == i2 {
		return c.last
	}
	k := cut{i1: i1, i2: i2, suf: minLevels, pre: minLevels, mid: minLevels}
	var run levels
	for i, ev := range c.cyc {
		if i == i1 {
			k.carry = run
		}
		run = run.plus(ev)
		if i >= i1 {
			k.suf = k.suf.max(run)
		}
		if i < i2 {
			k.pre = k.pre.max(run)
			if i >= i1 {
				k.mid = k.mid.max(run)
			}
		}
	}
	c.last = k
	return k
}

// offset is the level copy j starts from.
func (c *copies) offset(j int) levels {
	k := units.Bytes(j - 1)
	return levels{c.base.total + k*c.net.total, c.base.act + k*c.net.act}
}

// pos returns the position of the first copied event at or after t:
// (n+1, 0) when every copy lies before t.
func (c *copies) pos(t time.Duration) (j, i int) {
	j = 1
	if d := t - c.cyc[len(c.cyc)-1].at; d > 0 {
		j = int((d-1)/c.period) + 1 // the first copy whose last event is at or after t
	}
	if j > c.n {
		return c.n + 1, 0
	}
	i, _ = slices.BinarySearchFunc(c.cyc, t-time.Duration(j)*c.period, func(ev memEvent, t time.Duration) int {
		return cmp.Compare(ev.at, t)
	})
	return j, i
}

// peak returns the highest levels at the copied events in positions
// [(j1, i1), (j2, i2)), given the cut k those positions make; ok is
// false when the range is empty. A copy the range covers partly
// contributes a prefix or a suffix of the cycle, and the copies it covers
// whole peak at one end of their run, so the cost is constant in the
// number of copies.
func (c *copies) peak(j1, i1, j2, i2 int, k cut) (m levels, ok bool) {
	if j1 > j2 || j1 == j2 && i1 >= i2 {
		return m, false
	}
	if j1 == j2 {
		// pos never returns (j, n), so the range ends inside copy j.
		return c.offset(j1).add(k.mid), true
	}
	m = c.offset(j1).add(k.suf)
	if j2-j1 > 1 {
		hiTotal, hiAct := j1+1, j1+1
		if c.net.total > 0 {
			hiTotal = j2 - 1
		}
		if c.net.act > 0 {
			hiAct = j2 - 1
		}
		m = m.max(levels{c.offset(hiTotal).total + c.top.total, c.offset(hiAct).act + c.top.act})
	}
	if i2 > 0 {
		m = m.max(c.offset(j2).add(k.pre))
	}
	return m, true
}
