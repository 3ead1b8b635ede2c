// Package gds models GPUDirect Storage: the direct DMA path between GPU
// memory and NVMe SSDs that bypasses the CPU bounce buffer. For the
// direct path to be used, the GPU memory region must be registered with
// the driver (cuFileBufRegister). SSDTrain achieves this without replacing
// PyTorch's allocator by interposing on cudaMalloc/cudaFree via
// LD_PRELOAD; this package reproduces that design: a Registry tracks
// registered storages and a MallocHook auto-registers allocations as they
// are made, exactly like the paper's "CUDA malloc hook library".
//
// Unregistered transfers still work, but take the compatibility path
// through a host bounce buffer at substantially reduced bandwidth — the
// efficiency cliff the hook library exists to avoid (§II-D, §III-A).
package gds

import (
	"ssdtrain/internal/spans"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// Path identifies which data path a transfer takes.
type Path uint8

// Transfer paths.
const (
	// Direct is the GPU↔SSD peer-to-peer DMA path (registered memory).
	Direct Path = iota
	// Bounce is the compatibility path staging through host memory.
	Bounce
)

// String names the path.
func (p Path) String() string {
	if p == Bounce {
		return "bounce"
	}
	return "direct"
}

// Registry tracks which storages are registered for the direct path.
type Registry struct {
	registered map[int64]bool
	// BouncePenalty scales effective bandwidth on the compatibility path.
	// Measured cuFile compatibility-mode numbers are roughly half of the
	// direct path on Gen4 systems.
	BouncePenalty float64

	registrations   int
	deregistrations int

	// rec receives registration counters when tracing. Registration calls
	// carry no virtual timestamp (the malloc hook fires on host-side
	// allocator traffic), so the flight recorder sees them as counters
	// rather than spans.
	rec *spans.Recorder
}

// NewRegistry returns an empty registry with the default bounce penalty,
// sized for n concurrent registrations, so a fresh arena's first step
// fills the table instead of regrowing it from empty.
func NewRegistry(n int) *Registry {
	return &Registry{registered: make(map[int64]bool, n), BouncePenalty: 0.5}
}

// Reset forgets all registrations and zeroes the counters for reuse by a
// new simulation; the bounce penalty (a property of the hardware path, not
// of a run) is kept. Map buckets are retained so re-registration of a
// replayed workload allocates nothing.
func (r *Registry) Reset() {
	clear(r.registered)
	r.registrations = 0
	r.deregistrations = 0
}

// SetRecorder attaches the flight recorder the registry reports
// registration counters to.
func (r *Registry) SetRecorder(rec *spans.Recorder) { r.rec = rec }

// Register marks a storage as DMA-registered. Registering twice is a no-op
// (cuFileBufRegister is idempotent per region in practice).
func (r *Registry) Register(s *tensor.Storage) {
	if !r.registered[s.Seq()] {
		r.registered[s.Seq()] = true
		r.registrations++
		r.rec.Count("gds.register", 1)
	}
}

// Deregister removes a storage's registration.
func (r *Registry) Deregister(s *tensor.Storage) {
	if r.registered[s.Seq()] {
		delete(r.registered, s.Seq())
		r.deregistrations++
		r.rec.Count("gds.deregister", 1)
	}
}

// IsRegistered reports whether the storage takes the direct path.
func (r *Registry) IsRegistered(s *tensor.Storage) bool {
	return r.registered[s.Seq()]
}

// PathFor returns the transfer path for a storage.
func (r *Registry) PathFor(s *tensor.Storage) Path {
	if r.IsRegistered(s) {
		return Direct
	}
	return Bounce
}

// EffectiveBandwidth derates the nominal path bandwidth when the storage
// is unregistered and must bounce through the host.
func (r *Registry) EffectiveBandwidth(s *tensor.Storage, nominal units.Bandwidth) units.Bandwidth {
	if r.IsRegistered(s) {
		return nominal
	}
	return units.Bandwidth(float64(nominal) * r.BouncePenalty)
}

// Registrations returns how many distinct registrations were performed.
func (r *Registry) Registrations() int { return r.registrations }

// Deregistrations returns how many deregistrations were performed.
func (r *Registry) Deregistrations() int { return r.deregistrations }

// MallocHook is the LD_PRELOAD interposition analogue: attached to the GPU
// allocator, it registers every allocation with the GDS registry and
// deregisters on free, so the training framework's own allocator can stay
// in place (the paper keeps PyTorch's caching allocator untouched).
type MallocHook struct {
	reg *Registry
	// Enabled allows experiments to toggle interposition to measure the
	// bounce-path cost (ablation: GDS off).
	Enabled bool
}

// NewMallocHook builds a hook bound to the registry, enabled by default.
func NewMallocHook(reg *Registry) *MallocHook {
	return &MallocHook{reg: reg, Enabled: true}
}

// OnAlloc implements the allocator hook: register the new storage.
func (h *MallocHook) OnAlloc(s *tensor.Storage) {
	if h.Enabled {
		h.reg.Register(s)
	}
}

// OnFree implements the allocator hook: deregister the storage.
func (h *MallocHook) OnFree(s *tensor.Storage) {
	if h.Enabled {
		h.reg.Deregister(s)
	}
}
