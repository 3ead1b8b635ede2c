// Package sim holds the two primitives every hardware substrate is built
// on: the FIFO Server (GPU streams, DMA engines, PCIe links, NVMe queues)
// and the Sig state fingerprint behind the steady-state fast path. Time
// is virtual and no job is ever scheduled as a callback: a job's finish
// time is computed when it is submitted, so a given workload always
// produces exactly the same timeline. Determinism is what turns the
// paper's wall-clock experiments into reproducible unit tests.
package sim

import "time"

// Server is a serial FIFO resource: jobs are served one at a time in
// submission order. GPU streams, DMA engines, NVMe submission queues and
// the host launch thread are all Servers. A job's start time is
// max(its ready time, previous job's finish). The zero Server is idle;
// substrates hold theirs by value.
type Server struct {
	// busyUntil is when the most recently accepted job finishes.
	busyUntil time.Duration
	// busy accumulates total service time.
	busy time.Duration
	jobs int
}

// Reset clears the server's backlog and accounting for reuse by a new
// simulation: the queue is empty and no busy time has accrued, exactly
// like a freshly constructed server.
func (s *Server) Reset() {
	s.busyUntil = 0
	s.busy = 0
	s.jobs = 0
}

// Submit enqueues a job of the given duration that cannot start before
// ready, and returns its finish time.
func (s *Server) Submit(ready, dur time.Duration) time.Duration {
	if dur < 0 {
		panic("sim: negative job duration")
	}
	finish := s.StartFor(ready) + dur
	s.busyUntil = finish
	s.busy += dur
	s.jobs++
	return finish
}

// StartFor returns when a job with the given ready time would start,
// without submitting it: max(ready, backlog drain). Callers whose job
// duration depends on conditions at the start time (fault-degraded
// bandwidth) evaluate them here before Submit.
func (s *Server) StartFor(ready time.Duration) time.Duration {
	return max(ready, s.busyUntil)
}

// BusyUntil returns when the server's current backlog drains.
func (s *Server) BusyUntil() time.Duration { return s.busyUntil }

// Jobs returns how many jobs the server has accepted.
func (s *Server) Jobs() int { return s.jobs }

// BusyTime returns the cumulative service time of accepted jobs.
func (s *Server) BusyTime() time.Duration { return s.busy }
