package gpu

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// TestFinalizeWindowPeaks pins the window semantics: a window's peak is
// the highest level after any event inside it, or the level carried in
// at its start when that is higher.
func TestFinalizeWindowPeaks(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		from, to   time.Duration
		total, act units.Bytes
	}{
		{0, 40 * ms, 500, 450},
		{15 * ms, 25 * ms, 500, 450}, // carry-in level
		{25 * ms, 40 * ms, 250, 50},
		{21 * ms, 29 * ms, 50, 50}, // between events
		{40 * ms, 50 * ms, 250, 50},
	}
	for _, c := range cases {
		// Total 100 from 0, 500 from 10ms, 50 from 20ms, 250 from 30ms;
		// activations 50, then 450 from 10ms, then 50 from 20ms.
		a := NewAllocator(units.GiB, 0)
		s1 := tensor.NewStorage(50, tensor.GPU)
		s2 := tensor.NewStorage(50, tensor.GPU)
		s3 := tensor.NewStorage(400, tensor.GPU)
		s4 := tensor.NewStorage(200, tensor.GPU)
		a.Alloc(0, s1, ClassActivations)
		a.Alloc(0, s2, ClassWorkspace)
		a.Alloc(10*ms, s3, ClassActivations)
		a.Free(20*ms, s3)
		a.Free(20*ms, s2)
		a.Alloc(30*ms, s4, ClassWeights)
		w := []Window{{Start: c.from, End: c.to}}
		a.Finalize(w)
		if w[0].Total != c.total || w[0].Act != c.act {
			t.Errorf("window [%v, %v): peaks %v/%v, want %v/%v", c.from, c.to, w[0].Total, w[0].Act, c.total, c.act)
		}
	}
}

// TestFinalizeNegativeLevelPanics: a class level below zero is a bug
// (a free the allocator never saw, or a repeated step that frees state
// from before it), and the allocator refuses to report it.
func TestFinalizeNegativeLevelPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: negative level did not panic", name)
			} else if !strings.Contains(r.(string), "went negative") {
				t.Errorf("%s: panic %q, want a negative-level panic", name, r)
			}
		}()
		f()
	}

	// Real events: a corrupt buffer whose free outweighs its alloc.
	a := NewAllocator(units.GiB, 0)
	a.Alloc(0, tensor.NewStorage(10, tensor.GPU), ClassActivations)
	a.seq++
	a.events = append(a.events, memEvent{at: time.Millisecond, delta: -20, class: ClassActivations, seq: a.seq})
	mustPanic("real events", func() { a.Finalize(nil) })

	// A step that frees a storage allocated before it, with two such
	// storages: the step and one repeat can run, a second repeat has
	// nothing left to free.
	repeated := func(repeats int) *Allocator {
		a := NewAllocator(units.GiB, 0)
		first := tensor.NewStorage(10, tensor.GPU)
		a.Alloc(0, first, ClassWeights)
		a.Alloc(0, tensor.NewStorage(10, tensor.GPU), ClassWeights)
		a.FoldWindow(&Window{End: time.Millisecond})
		mark := a.EventMark()
		a.Free(time.Millisecond, first)
		steps := make([]Window, 1+repeats)
		for j := range steps {
			steps[j] = Window{Start: time.Duration(j+1) * time.Millisecond, End: time.Duration(j+2) * time.Millisecond}
		}
		a.Repeat(mark, steps)
		return a
	}
	mustPanic("repeated step", func() { repeated(2) })
	if rep := repeated(1).Finalize(nil); rep.PeakTotal != 20 {
		t.Errorf("one repeat: peak %v, want 20 B", rep.PeakTotal)
	}
}

// TestRepeatChecksSteps: Repeat takes contiguous steps of one period and
// an exemplar recorded within its own step.
func TestRepeatChecksSteps(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name  string
		at    time.Duration // the exemplar's one allocation
		steps []Window
	}{
		{"gap", 2 * ms, []Window{{Start: 2 * ms, End: 3 * ms}, {Start: 4 * ms, End: 5 * ms}}},
		{"longer repeat", 2 * ms, []Window{{Start: 2 * ms, End: 3 * ms}, {Start: 3 * ms, End: 5 * ms}}},
		{"backdated event", ms, []Window{{Start: 2 * ms, End: 3 * ms}, {Start: 3 * ms, End: 4 * ms}}},
	}
	for _, c := range cases {
		a := NewAllocator(units.GiB, 0)
		a.FoldWindow(&Window{End: ms})
		mark := a.EventMark()
		a.Alloc(c.at, tensor.NewStorage(10, tensor.GPU), ClassActivations)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Repeat did not panic", c.name)
				}
			}()
			a.Repeat(mark, c.steps)
		}()
	}
}

// cycleOp is one recorded call of a periodic cycle, at a time relative
// to its copy's origin.
type cycleOp struct {
	kind  int
	id    int // cycle-local storage, for opAlloc and opFree
	at    time.Duration
	size  units.Bytes
	class Class
}

const (
	opAlloc       = iota // a storage the cycle frees again
	opFree               // free of an opAlloc storage
	opLeak               // a storage the cycle never frees: net > 0
	opFreeCarried        // free of a storage from before the cycle: net < 0
)

// cycleCase is a periodic cycle and how many times it repeats after the
// exemplar.
type cycleCase struct {
	period  time.Duration
	ops     []cycleOp
	carried units.Bytes // size of each storage opFreeCarried frees
	cClass  Class
	repeats int
	// leads is how many copies of the cycle run in the two steps before
	// the exemplar, the later ones first; a converged run has copies
	// there, and a cycle whose events run more than a period late needs
	// two for the exemplar to be periodic. skew makes those copies
	// differ from the cycle in one way: 1 each size is 100 B larger, 2
	// each class is the next one, 3 each event is one grid step later.
	leads, skew int
	grid        time.Duration
}

// randomCycle draws a cycle whose events fall on a grid of q, so
// same-time events are common, from its copy's origin to up to 3q past
// its end (late into the next step; the period is 8q), or, when far is
// set, up to 11q past it (into the step after). The cycle's first and
// last events are one period apart — a tie between copy j's last event
// and copy j+1's first — when both ends of the span are drawn. Frees
// may be timed before their allocation (clamped by Free) and are
// recorded in shuffled order. mode picks the net per cycle: 0 zero, 1
// positive, 2 negative, 3 zero in total but not per class.
func randomCycle(rng *rand.Rand, mode int, far bool) cycleCase {
	q := time.Duration(1+rng.IntN(4)) * time.Microsecond
	c := cycleCase{period: 8 * q, repeats: rng.IntN(61), grid: q}
	late := 4
	if far {
		late = 12
	}
	lo := time.Duration(rng.IntN(late)) * q
	at := func() time.Duration { return lo + time.Duration(rng.IntN(9))*q }
	class := func() Class { return Class(rng.IntN(int(classCount))) }
	// Sizes from a few multiples of 100 make equal levels, and so peak
	// ties, common.
	size := func() units.Bytes { return units.Bytes(100 * (1 + rng.IntN(4))) }
	m := 1 + rng.IntN(6)
	for id := 0; id < m; id++ {
		c.ops = append(c.ops,
			cycleOp{kind: opAlloc, id: id, at: at(), size: size(), class: class()},
			cycleOp{kind: opFree, id: id, at: at()})
	}
	if mode == 1 || mode == 3 {
		c.ops = append(c.ops, cycleOp{kind: opLeak, at: at(), size: size(), class: class()})
	}
	if mode == 2 || mode == 3 {
		c.carried, c.cClass = size(), class()
		if mode == 3 {
			c.ops[len(c.ops)-1].size = c.carried
			for c.cClass == c.ops[len(c.ops)-1].class {
				c.cClass = class()
			}
		}
		c.ops = append(c.ops, cycleOp{kind: opFreeCarried, at: at()})
	}
	rng.Shuffle(len(c.ops), func(i, j int) { c.ops[i], c.ops[j] = c.ops[j], c.ops[i] })
	// Record each storage's alloc before its free.
	for i := range c.ops {
		if c.ops[i].kind != opFree {
			continue
		}
		for j := i + 1; j < len(c.ops); j++ {
			if c.ops[j].kind == opAlloc && c.ops[j].id == c.ops[i].id {
				c.ops[i], c.ops[j] = c.ops[j], c.ops[i]
				break
			}
		}
	}
	return c
}

// exemplar is the exemplar's step: a prefix and two lead steps come
// before it.
const exemplar = 3

// steps returns the run's step windows: the prefix, the lead steps, the
// exemplar, its repeats, and two last steps that take the repeats' late
// events.
func (c cycleCase) steps() []Window {
	ws := make([]Window, exemplar+c.repeats+3)
	for j := range ws {
		ws[j] = Window{Start: time.Duration(j) * c.period, End: time.Duration(j+1) * c.period}
	}
	return ws
}

// run records a prefix, the lead copies and the exemplar for real, then
// the repeats either through Repeat or for real, and returns the report
// with the step peaks and whether Repeat recorded any event. The real
// run finalizes every step at once; the repeated one folds each step as
// a session does and finalizes only the last two.
func (c cycleCase) run(repeat bool) (rep MemReport, windows []Window, recorded bool) {
	a := NewAllocator(units.GiB, 0)
	a.Alloc(0, tensor.NewStorage(7, tensor.GPU), ClassWeights)
	// carried[k] is the storage step k's copy frees, if it frees one.
	var carried []*tensor.Storage
	if c.carried > 0 {
		for k := 0; k <= exemplar+c.repeats; k++ {
			s := tensor.NewStorage(c.carried, tensor.GPU)
			a.Alloc(0, s, c.cClass)
			carried = append(carried, s)
		}
	}
	// issue records step k's copy of the cycle, skewed before the
	// exemplar.
	issue := func(k int) {
		shift := time.Duration(k) * c.period
		skew := 0
		if k < exemplar {
			skew = c.skew
		}
		if skew == 3 {
			shift += c.grid
		}
		local := map[int]*tensor.Storage{}
		for _, op := range c.ops {
			size, class := op.size, op.class
			switch skew {
			case 1:
				size += 100
			case 2:
				class = (class + 1) % classCount
			}
			switch op.kind {
			case opAlloc:
				local[op.id] = tensor.NewStorage(size, tensor.GPU)
				a.Alloc(shift+op.at, local[op.id], class)
			case opFree:
				a.Free(shift+op.at, local[op.id])
			case opLeak:
				a.Alloc(shift+op.at, tensor.NewStorage(size, tensor.GPU), class)
			case opFreeCarried:
				a.Free(shift+op.at, carried[k])
			}
		}
	}
	windows = c.steps()
	fold := exemplar + c.repeats + 1 // the steps before it fold
	mark := 0
	for k := 1; k <= exemplar; k++ {
		if repeat {
			a.FoldWindow(&windows[k-1])
		}
		mark = a.EventMark()
		if k+c.leads >= exemplar {
			issue(k)
		}
	}
	if !repeat {
		for k := exemplar + 1; k < fold; k++ {
			issue(k)
		}
		return a.Finalize(windows), windows, false
	}
	seq := a.seq
	a.Repeat(mark, windows[exemplar:fold])
	recorded = a.seq != seq
	return a.Finalize(windows[fold:]), windows, recorded
}

// TestRepeatMatchesRealCopies is Repeat's property pin: for seeded
// random periodic cycles — late, far-late and same-time events, ties at
// step boundaries, net per cycle positive, zero and negative, 0 to 60
// repeats, lead steps that match the cycle, differ from it or are empty
// — repeating the exemplar step with Repeat gives the same MemReport and
// the same step peaks as issuing every repeat for real. A zero-net cycle
// after two unskewed lead copies of itself is periodic, and Repeat
// records no event for it; cycles that are not periodic take the
// per-repeat path. Both paths must run often.
func TestRepeatMatchesRealCopies(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2408))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	var periodic, perRepeat int
	for trial := 0; trial < trials; trial++ {
		// Half the cycles net zero, the window-level path's case.
		mode := 0
		if trial%2 == 1 {
			mode = 1 + trial/2%3
		}
		c := randomCycle(rng, mode, trial%3 == 0)
		c.leads = []int{0, 1, 2, 2}[rng.IntN(4)]
		if rng.IntN(3) == 0 {
			c.skew = 1 + rng.IntN(3)
		}
		gotRep, got, recorded := c.run(true)
		wantRep, want, _ := c.run(false)
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("trial %d (%+v): repeated report %+v, real copies %+v", trial, c, gotRep, wantRep)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%+v): step %d repeated %+v, real copies %+v", trial, c, i, got[i], want[i])
			}
		}
		if mode == 0 && c.leads == 2 && c.skew == 0 && recorded {
			t.Fatalf("trial %d (%+v): Repeat recorded events for a periodic zero-net step", trial, c)
		}
		if recorded {
			perRepeat++
		} else if c.repeats > 0 {
			periodic++
		}

		// Step windows cover the run, so their peaks are the run's.
		var top Window
		for _, w := range got {
			top.Total, top.Act = max(top.Total, w.Total), max(top.Act, w.Act)
		}
		if top.Total != gotRep.PeakTotal || top.Act != gotRep.PeakActivations() {
			t.Fatalf("trial %d: step peaks %v/%v, run peaks %v/%v", trial, top.Total, top.Act, gotRep.PeakTotal, gotRep.PeakActivations())
		}
	}
	if periodic < trials/5 || perRepeat < trials/5 {
		t.Fatalf("%d trials took the window-level path and %d the per-repeat path; each should take a fifth", periodic, perRepeat)
	}
	t.Logf("%d window-level, %d per-repeat of %d trials", periodic, perRepeat, trials)
}
