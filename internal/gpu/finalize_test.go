package gpu

import (
	"math/rand/v2"
	"reflect"
	"slices"
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
		a := NewAllocator(units.GiB)
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
// (a free the allocator never saw, or a replicated cycle that frees
// state from before it), and Finalize refuses to report it.
func TestFinalizeNegativeLevelPanics(t *testing.T) {
	mustPanic := func(name string, a *Allocator) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: negative level did not panic", name)
			} else if !strings.Contains(r.(string), "went negative") {
				t.Errorf("%s: panic %q, want a negative-level panic", name, r)
			}
		}()
		a.Finalize(nil)
	}

	// Real events: a corrupt buffer whose free outweighs its alloc.
	a := NewAllocator(units.GiB)
	a.Alloc(0, tensor.NewStorage(10, tensor.GPU), ClassActivations)
	a.seq++
	a.events = append(a.events, memEvent{at: time.Millisecond, delta: -20, class: ClassActivations, seq: a.seq})
	mustPanic("real events", a)

	// A cycle that frees a storage allocated before it, with two such
	// storages: the real cycle and one copy can run, a second copy has
	// nothing left to free.
	replicated := func(copies int) *Allocator {
		a := NewAllocator(units.GiB)
		first := tensor.NewStorage(10, tensor.GPU)
		a.Alloc(0, first, ClassWeights)
		a.Alloc(0, tensor.NewStorage(10, tensor.GPU), ClassWeights)
		mark := a.EventMark()
		a.Free(time.Millisecond, first)
		a.ReplicateTail(mark, copies, time.Millisecond)
		return a
	}
	mustPanic("replicated cycle", replicated(2))
	if rep := replicated(1).Finalize(nil); rep.PeakTotal != 20 {
		t.Errorf("one copy: peak %v, want 20 B", rep.PeakTotal)
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

// cycleCase is a periodic cycle and how many more times it repeats.
type cycleCase struct {
	period  time.Duration
	ops     []cycleOp
	carried units.Bytes // size of each storage opFreeCarried frees
	cClass  Class
	copies  int
	grid    time.Duration // events fall on multiples of grid
	// overlap shortens the period to 6q, below the cycle's span, so
	// copies may overlap and ReplicateTail must materialize them;
	// allocAfter allocates once more after the copies, which materializes
	// them too.
	overlap, allocAfter bool
}

// randomCycle draws a cycle whose events fall on a grid of q, so
// same-time events are common, within a span of 8q, the period: from up
// to 3q before the copy's origin (backdated into the previous step) to
// up to 3q after its end (late into the next), with the cycle's first
// and last events one period apart — a tie between copy j's last event
// and copy j+1's first — when both ends of the span are drawn. Frees
// may be timed before their allocation (clamped by Free) and are
// recorded in shuffled order. mode picks the net per cycle: 0 zero, 1
// positive, 2 negative, 3 zero in total but not per class.
func randomCycle(rng *rand.Rand, mode int, overlap, allocAfter bool) cycleCase {
	q := time.Duration(1+rng.IntN(4)) * time.Microsecond
	c := cycleCase{period: 8 * q, copies: rng.IntN(61), grid: q, overlap: overlap, allocAfter: allocAfter}
	if overlap {
		c.period = 6 * q
	}
	lo := time.Duration(rng.IntN(7)-3) * q
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

// run issues the cycle's prefix and first copy for real, then the
// remaining copies either through ReplicateTail or for real, and
// finalizes with windows.
func (c cycleCase) run(t *testing.T, virtual bool, windows []Window) MemReport {
	a := NewAllocator(units.GiB)
	a.Alloc(0, tensor.NewStorage(7, tensor.GPU), ClassWeights)
	var carried []*tensor.Storage
	if c.carried > 0 {
		for j := 0; j <= c.copies; j++ {
			s := tensor.NewStorage(c.carried, tensor.GPU)
			a.Alloc(0, s, c.cClass)
			carried = append(carried, s)
		}
	}
	origin := c.period
	issue := func(j int) {
		shift := origin + time.Duration(j)*c.period
		local := map[int]*tensor.Storage{}
		for _, op := range c.ops {
			switch op.kind {
			case opAlloc:
				local[op.id] = tensor.NewStorage(op.size, tensor.GPU)
				a.Alloc(shift+op.at, local[op.id], op.class)
			case opFree:
				a.Free(shift+op.at, local[op.id])
			case opLeak:
				a.Alloc(shift+op.at, tensor.NewStorage(op.size, tensor.GPU), op.class)
			case opFreeCarried:
				a.Free(shift+op.at, carried[j])
			}
		}
	}
	mark := a.EventMark()
	issue(0)
	if virtual {
		a.ReplicateTail(mark, c.copies, c.period)
		if c.copies > 0 && !c.overlap && a.replN == 0 {
			t.Fatal("ReplicateTail materialized a cycle that fits its period")
		}
	} else {
		for j := 1; j <= c.copies; j++ {
			issue(j)
		}
	}
	if c.allocAfter {
		a.Alloc(origin+time.Duration(c.copies+1)*c.period, tensor.NewStorage(3, tensor.GPU), ClassActivations)
	}
	return a.Finalize(windows)
}

// TestReplicateTailMatchesRealCopies is the closed form's property pin:
// for seeded random periodic cycles — late, backdated and same-time
// events, ties at copy boundaries, net per cycle positive, zero and
// negative, 0 to 60 copies — replicating the cycle with ReplicateTail
// gives the same MemReport and the same per-window peaks as issuing
// every copy for real, over step-aligned windows and over random ones
// (short, long, empty, with gaps). Cycles whose copies would overlap, and
// allocations after the copies, take the materializing path instead.
func TestReplicateTailMatchesRealCopies(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2408))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		c := randomCycle(rng, trial%4, trial%5 == 4, trial%7 == 6)
		end := c.period * time.Duration(c.copies+3)

		// Step windows: the prefix, then one per period from the
		// origin, covering every event.
		steps := []Window{{Start: 0, End: c.period}}
		for j := 1; j <= c.copies+2; j++ {
			steps = append(steps, Window{Start: time.Duration(j) * c.period, End: time.Duration(j+1) * c.period})
		}
		// Random windows up to three periods long, some empty, some
		// apart, with ends on the events' grid or one nanosecond either
		// side of it, so events fall on, just inside and just outside
		// window ends.
		var random []Window
		edge := func(k int) time.Duration { return time.Duration(k)*c.grid + time.Duration(rng.IntN(3)-1) }
		for k, prev := 0, time.Duration(0); prev < end; {
			w := Window{Start: max(edge(k), prev)}
			k += rng.IntN(25)
			w.End = max(edge(k), w.Start)
			random = append(random, w)
			k += rng.IntN(2)
			prev = w.End
		}

		for _, windows := range [][]Window{steps, random} {
			got := slices.Clone(windows)
			want := slices.Clone(windows)
			gotRep := c.run(t, true, got)
			wantRep := c.run(t, false, want)
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("trial %d (%+v): replicated report %+v, real copies %+v", trial, c, gotRep, wantRep)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d (%+v): window %d replicated %+v, real copies %+v", trial, c, i, got[i], want[i])
					}
				}
			}
		}

		// Step windows cover the run, so their peaks are the run's.
		rep := c.run(t, true, steps)
		var top Window
		for _, w := range steps {
			top.Total, top.Act = max(top.Total, w.Total), max(top.Act, w.Act)
		}
		if top.Total != rep.PeakTotal || top.Act != rep.PeakActivations() {
			t.Fatalf("trial %d: window peaks %v/%v, run peaks %v/%v", trial, top.Total, top.Act, rep.PeakTotal, rep.PeakActivations())
		}
	}
}
