package gpu

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// foldInput reads a fuzz input a byte at a time, as zeros once it runs
// out.
type foldInput []byte

func (in *foldInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	v := int((*in)[0])
	*in = (*in)[1:]
	return v % n
}

// foldCall is one recorded Alloc (size > 0) or Free (size 0) of storage
// id at virtual time at.
type foldCall struct {
	id    int
	at    time.Duration
	size  units.Bytes
	class Class
}

// foldStream is a random allocator trace cut into contiguous windows:
// a prefix recorded before the first window, then each window's calls,
// each timed at or after its window's start and possibly past its end.
// copies > 0 repeats the last window's calls that many more times, one
// window length apart.
type foldStream struct {
	prefix  []foldCall
	windows []Window
	calls   [][]foldCall
	copies  int
}

// foldUnit is the time grid: a coarse grid makes same-time events, and
// events on window ends, common.
const foldUnit = time.Microsecond

func decodeFoldStream(in foldInput) foldStream {
	var s foldStream
	live := map[int]time.Duration{} // live storage → its alloc time
	ids := 0
	alloc := func(at time.Duration) foldCall {
		live[ids] = at
		ids++
		return foldCall{id: ids - 1, at: at, size: units.Bytes(100 * (1 + in.next(4))), class: Class(in.next(int(classCount)))}
	}
	for range in.next(4) {
		s.prefix = append(s.prefix, alloc(0))
	}
	start := time.Duration(in.next(3)) * foldUnit
	for range 1 + in.next(8) {
		w := Window{Start: start, End: start + time.Duration(1+in.next(8))*foldUnit}
		span := int((w.End-w.Start)/foldUnit) + 4 // late by up to four units
		var calls []foldCall
		for range in.next(12) {
			at := w.Start + time.Duration(in.next(span))*foldUnit
			if in.next(3) < 2 || len(live) == 0 {
				calls = append(calls, alloc(at))
				continue
			}
			// Free a live storage, picked in id order; a free timed before
			// its alloc is clamped by Free.
			k := in.next(len(live))
			for id := range ids {
				if _, ok := live[id]; ok {
					if k == 0 {
						delete(live, id)
						calls = append(calls, foldCall{id: id, at: at})
						break
					}
					k--
				}
			}
		}
		s.windows = append(s.windows, w)
		s.calls = append(s.calls, calls)
		start = w.End
	}
	s.copies = in.next(24)
	return s
}

// foldRun is the outcome of one way of finalizing a stream.
type foldRun struct {
	rep     MemReport
	windows []Window
	panic   string
}

// run records the stream on a fresh allocator and finalizes it. Folded,
// it folds every window before the next one's calls and repeats the
// last window's calls with Repeat; otherwise it issues every repeat for
// real and finalizes the whole log at once. A repeat frees its own
// copy of each storage the last window frees but did not allocate, so
// the real run allocates those copies in the prefix, and so, to keep the
// two logs alike, does the folded one. A panic is returned, not raised:
// both ways must panic alike.
func (s foldStream) run(t *testing.T, fold bool) (out foldRun) {
	defer func() {
		if r := recover(); r != nil {
			out.panic = fmt.Sprint(r)
		}
	}()
	a := NewAllocator(units.GiB, 0)
	storages := map[int]*tensor.Storage{}
	allocAt := map[int]time.Duration{}
	issue := func(c foldCall) {
		if c.size == 0 {
			a.Free(c.at, storages[c.id])
			delete(storages, c.id)
			return
		}
		storages[c.id] = tensor.NewStorage(c.size, tensor.GPU)
		allocAt[c.id] = c.at
		a.Alloc(c.at, storages[c.id], c.class)
	}
	last := len(s.windows) - 1
	allocs := map[int]foldCall{}
	for _, calls := range append([][]foldCall{s.prefix}, s.calls...) {
		for _, c := range calls {
			if c.size > 0 {
				allocs[c.id] = c
			}
		}
	}
	// carried[j][id] is repeat j's copy of storage id, freed by the last
	// window but allocated before it.
	carried := make([]map[int]*tensor.Storage, s.copies+1)
	for j := 1; j <= s.copies; j++ {
		carried[j] = map[int]*tensor.Storage{}
		mine := map[int]bool{}
		for _, c := range s.calls[last] {
			if c.size > 0 {
				mine[c.id] = true
			} else if !mine[c.id] {
				st := tensor.NewStorage(allocs[c.id].size, tensor.GPU)
				a.Alloc(0, st, allocs[c.id].class)
				carried[j][c.id] = st
			}
		}
	}
	for _, c := range s.prefix {
		issue(c)
	}
	wins := append([]Window(nil), s.windows...)
	period := wins[last].End - wins[last].Start
	for j := 1; j <= s.copies; j++ {
		shift := time.Duration(j) * period
		wins = append(wins, Window{Start: wins[last].Start + shift, End: wins[last].End + shift})
	}
	mark := 0
	for i, calls := range s.calls {
		if fold && i > 0 {
			a.FoldWindow(&wins[i-1])
			checkFoldedPoint(t, a, wins[i].Start, storages, allocAt)
		}
		mark = a.EventMark()
		for _, c := range calls {
			issue(c)
		}
	}
	switch {
	case fold && s.copies > 0:
		a.Repeat(mark, wins[last:])
		checkFoldedPoint(t, a, wins[len(wins)-1].End, storages, allocAt)
		out.rep = a.Finalize(nil)
	case fold:
		out.rep = a.Finalize(wins[last:])
	default:
		for j := 1; j <= s.copies; j++ {
			shift := time.Duration(j) * period
			local := map[int]*tensor.Storage{}
			for _, c := range s.calls[last] {
				switch {
				case c.size > 0:
					local[c.id] = tensor.NewStorage(c.size, tensor.GPU)
					a.Alloc(c.at+shift, local[c.id], c.class)
				case local[c.id] != nil:
					a.Free(c.at+shift, local[c.id])
				default:
					// The last window's free was clamped to the time its
					// storage was allocated; so is the repeat's.
					a.Free(max(c.at, allocs[c.id].at)+shift, carried[j][c.id])
				}
			}
		}
		out.rep = a.Finalize(wins)
	}
	out.windows = wins
	return out
}

// checkFoldedPoint asserts that an Alloc, and a Free of a storage
// allocated before the folded point, both timed just before it, panic
// and leave the allocator as it was.
func checkFoldedPoint(t *testing.T, a *Allocator, folded time.Duration, storages map[int]*tensor.Storage, allocAt map[int]time.Duration) {
	t.Helper()
	mustPanic := func(what string, f func()) {
		t.Helper()
		n, live := a.EventMark(), a.LiveBytes()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s before the folded point %v did not panic", what, folded)
			}
			if a.EventMark() != n || a.LiveBytes() != live {
				t.Fatalf("%s before the folded point %v changed the allocator", what, folded)
			}
		}()
		f()
	}
	mustPanic("Alloc", func() { a.Alloc(folded-1, tensor.NewStorage(1, tensor.GPU), ClassWorkspace) })
	for id, s := range storages {
		if allocAt[id] < folded {
			mustPanic("Free", func() { a.Free(folded-1, s) })
			break
		}
	}
}

// checkFold is the fold's property: folding window by window, repeating
// the last window with Repeat, and then finalizing gives the same report
// and window peaks as issuing every repeat for real and one Finalize
// over the whole log.
func checkFold(t *testing.T, in foldInput) {
	s := decodeFoldStream(in)
	for _, copies := range []int{0, s.copies} {
		s.copies = copies
		want := s.run(t, false)
		got := s.run(t, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("copies %d: folded run %+v, one Finalize %+v\nstream %+v", copies, got, want, s)
		}
	}
}

// FuzzFoldMatchesFinalize pins FoldWindow and Repeat against Finalize
// over random streams cut into contiguous windows, each window's events
// recorded during it and never before its start, and checks that a call
// timed before the folded point panics.
func FuzzFoldMatchesFinalize(f *testing.F) {
	rng := rand.New(rand.NewPCG(26, 2408))
	for range 64 {
		in := make([]byte, 64+rng.IntN(192))
		for i := range in {
			in[i] = byte(rng.Uint32())
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkFold(t, in) })
}
