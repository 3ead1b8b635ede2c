package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestServerFIFO(t *testing.T) {
	s := NewServer()
	f1 := s.Submit(0, 10*time.Millisecond)
	f2 := s.Submit(0, 5*time.Millisecond)
	if f1 != 10*time.Millisecond {
		t.Errorf("f1 = %v", f1)
	}
	// Second job queues behind the first even though it was ready at 0.
	if f2 != 15*time.Millisecond {
		t.Errorf("f2 = %v", f2)
	}
	// A job with a later ready time starts at its ready time.
	f3 := s.Submit(20*time.Millisecond, time.Millisecond)
	if f3 != 21*time.Millisecond {
		t.Errorf("f3 = %v", f3)
	}
	if s.Jobs() != 3 {
		t.Errorf("jobs = %d", s.Jobs())
	}
	if s.BusyTime() != 16*time.Millisecond {
		t.Errorf("busy = %v", s.BusyTime())
	}
}

// Property: a FIFO server starts every job exactly at max(its ready
// time, the previous job's finish) — it never overlaps jobs, never
// reorders them, and never idles while a ready job waits. StartFor
// predicts that start without submitting.
func TestServerNoOverlapProperty(t *testing.T) {
	f := func(durs []uint16, readies []uint16) bool {
		s := NewServer()
		var lastFinish time.Duration
		n := min(len(durs), len(readies))
		for i := 0; i < n; i++ {
			d := time.Duration(durs[i]) * time.Microsecond
			r := time.Duration(readies[i]) * time.Microsecond
			want := max(r, lastFinish)
			if s.StartFor(r) != want {
				return false
			}
			fin := s.Submit(r, d)
			if fin-d != want || s.BusyUntil() != fin {
				return false
			}
			lastFinish = fin
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestServerReset asserts a reset server accepts jobs like a fresh one.
func TestServerReset(t *testing.T) {
	s := NewServer()
	s.Submit(0, 5*time.Microsecond)
	s.Submit(0, 5*time.Microsecond)
	if s.BusyUntil() != 10*time.Microsecond || s.Jobs() != 2 {
		t.Fatalf("unexpected pre-reset state: busyUntil=%v jobs=%d", s.BusyUntil(), s.Jobs())
	}
	s.Reset()
	if s.BusyUntil() != 0 || s.BusyTime() != 0 || s.Jobs() != 0 {
		t.Fatalf("reset left busyUntil=%v busy=%v jobs=%d", s.BusyUntil(), s.BusyTime(), s.Jobs())
	}
	if finish := s.Submit(0, 3*time.Microsecond); finish != 3*time.Microsecond {
		t.Fatalf("post-reset submit finished at %v, want 3µs", finish)
	}
}
