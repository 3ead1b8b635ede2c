package autograd

import (
	"fmt"
	"time"

	"ssdtrain/internal/gpu"
	"ssdtrain/internal/sim"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/trace"
)

// Runtime bundles the simulated device state one training process sees:
// the GPU allocator, storage lifetimes, the compute stream, and the
// flight recorder. Both the executor and the tensor cache operate against
// the same Runtime, mirroring how the paper's cache shares the CUDA
// context with PyTorch.
type Runtime struct {
	Spec     gpu.Spec
	Cost     *gpu.CostModel
	Alloc    *gpu.Allocator
	Life     *Lifetimes
	Compute  *sim.Server
	Counters *trace.Counters

	// Rec is the arena's flight recorder, constructed disabled; the
	// measurement harness enables it around traced runs. ComputeTrack is
	// the executor's kernel track on it.
	Rec          *spans.Recorder
	ComputeTrack spans.TrackID
}

// NewRuntime builds a runtime for one GPU. Every substrate built later in
// the arena takes Rec at construction and registers its tracks on it.
func NewRuntime(spec gpu.Spec) *Runtime {
	rec := spans.NewRecorder(0)
	alloc := gpu.NewAllocator(spec.Memory)
	alloc.SetRecorder(rec)
	return &Runtime{
		Spec:         spec,
		Cost:         gpu.DefaultCostModel(spec),
		Alloc:        alloc,
		Life:         NewLifetimes(alloc),
		Compute:      sim.NewServer(),
		Counters:     trace.NewCounters(),
		Rec:          rec,
		ComputeTrack: rec.RegisterTrack("gpu.compute"),
	}
}

// Reset rewinds the whole simulated device for reuse by a new
// measurement on the same arena: the allocator's recorded run is
// discarded (hooks survive), pending lifetime bookkeeping is dropped, the
// compute stream is idle, and the counters read zero. Warm capacity —
// the allocator's event buffer, map buckets everywhere — is retained;
// that is what makes a reset cheaper than a rebuild.
func (rt *Runtime) Reset() {
	rt.Alloc.Reset()
	rt.Life.Reset()
	rt.Compute.Reset()
	rt.Counters.Reset()
}

// Lifetimes coordinates reference-counted storage release between the
// executor and the tensor cache. A storage is freed into the allocator
// when its last strong reference is dropped, at the latest virtual time
// any reference was released — exactly the paper's semantics where GPU
// memory is reclaimed "once the control flow gets out of the function
// scope" AND offloading has finished (§III-B).
type Lifetimes struct {
	alloc  *gpu.Allocator
	freeAt map[int64]time.Duration
}

// NewLifetimes creates a tracker bound to the allocator.
func NewLifetimes(alloc *gpu.Allocator) *Lifetimes {
	return &Lifetimes{alloc: alloc, freeAt: make(map[int64]time.Duration)}
}

// Alloc registers the storage with the allocator at virtual time at and
// takes the initial (producer) reference.
func (l *Lifetimes) Alloc(at time.Duration, s *tensor.Storage, class gpu.Class) {
	l.alloc.Alloc(at, s, class)
	s.Retain()
}

// Retain takes an additional reference on a live storage.
func (l *Lifetimes) Retain(s *tensor.Storage) { s.Retain() }

// Release drops a reference at virtual time at; when the count reaches
// zero the storage is freed into the allocator at the maximum release
// time seen.
func (l *Lifetimes) Release(s *tensor.Storage, at time.Duration) {
	seq := s.Seq()
	if prev, ok := l.freeAt[seq]; !ok || at > prev {
		l.freeAt[seq] = at
	}
	if s.Release() {
		l.alloc.Free(l.freeAt[seq], s)
		delete(l.freeAt, seq)
	}
}

// Reset drops any pending release bookkeeping for reuse by a new run. A
// clean run ends quiescent, so this usually clears nothing; after an
// aborted run it discards the partial state a fresh tracker would never
// have seen.
func (l *Lifetimes) Reset() { clear(l.freeAt) }

// MustBeQuiescent panics if any tracked release times remain for live
// storages — a leak detector used by tests at step boundaries.
func (l *Lifetimes) MustBeQuiescent(context string) {
	if n := len(l.freeAt); n > 0 {
		panic(fmt.Sprintf("autograd: %s: %d storages still partially released", context, n))
	}
}
