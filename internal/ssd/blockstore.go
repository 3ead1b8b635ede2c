package ssd

import (
	"fmt"

	"ssdtrain/internal/units"
)

// BlockStore is the byte-accurate file layer the offloaders write tensor
// payloads into — the analogue of the paper's "/mnt/md1/t1.pt" files. It
// supports both payload-backed files (for round-trip verification tests)
// and size-only files (for timing-only experiments where materializing
// tens of gigabytes would be waste). The store is generic in its key so
// offloaders can index files by their compact tensor IDs directly instead
// of formatting path strings on the simulation hot path; rendering the
// paper-style "/mnt/md1/t1.pt" name is deferred to diagnostics.
type BlockStore[K comparable] struct {
	// files is made at the first write, sized for hint files (Presize),
	// so a store nothing writes to never allocates a table. Files are
	// held by value: every offload file is written and unlinked once per
	// step, and the table's own slots carry that churn without a heap
	// object per file.
	files map[K]storedFile
	hint  int

	written units.Bytes
	read    units.Bytes
	deleted units.Bytes
	used    units.Bytes
	peak    units.Bytes
}

type storedFile struct {
	size units.Bytes
	data []byte // nil for size-only files
}

// NewBlockStore returns an empty store.
func NewBlockStore[K comparable]() *BlockStore[K] { return &BlockStore[K]{} }

// Presize sizes the store for n files, so a fresh arena's first step
// fills the table instead of regrowing it from empty. Call it before the
// first write.
func (b *BlockStore[K]) Presize(n int) { b.hint = n }

// WriteFile stores a payload-backed file, overwriting any previous file at
// the path. The payload is copied.
func (b *BlockStore[K]) WriteFile(path K, data []byte) {
	b.remove(path)
	cp := make([]byte, len(data))
	copy(cp, data)
	b.put(path, storedFile{size: units.Bytes(len(data)), data: cp})
}

// WriteSize stores a size-only file (no payload).
func (b *BlockStore[K]) WriteSize(path K, n units.Bytes) {
	if n < 0 {
		panic(fmt.Sprintf("ssd: negative file size %d", n))
	}
	b.remove(path)
	b.put(path, storedFile{size: n})
}

func (b *BlockStore[K]) put(path K, f storedFile) {
	if b.files == nil {
		b.files = make(map[K]storedFile, b.hint)
	}
	b.files[path] = f
	b.written += f.size
	b.used += f.size
	if b.used > b.peak {
		b.peak = b.used
	}
}

func (b *BlockStore[K]) remove(path K) {
	if old, ok := b.files[path]; ok {
		b.used -= old.size
		b.deleted += old.size
		delete(b.files, path)
	}
}

// Reset empties the store and zeroes all counters for reuse by a new
// simulation; map buckets are retained so a replayed workload allocates
// nothing.
func (b *BlockStore[K]) Reset() {
	for path := range b.files {
		delete(b.files, path)
	}
	b.written, b.read, b.deleted, b.used, b.peak = 0, 0, 0, 0, 0
}

// ReadFile returns a copy of a payload-backed file's bytes. Reading a
// size-only file returns nil with ok=true; reading a missing path returns
// ok=false.
func (b *BlockStore[K]) ReadFile(path K) (data []byte, ok bool) {
	f, ok := b.files[path]
	if !ok {
		return nil, false
	}
	b.read += f.size
	if f.data == nil {
		return nil, true
	}
	cp := make([]byte, len(f.data))
	copy(cp, f.data)
	return cp, true
}

// Size returns a file's size, with ok=false for missing paths.
func (b *BlockStore[K]) Size(path K) (units.Bytes, bool) {
	f, ok := b.files[path]
	if !ok {
		return 0, false
	}
	return f.size, true
}

// Delete removes a file; deleting a missing path is a no-op (idempotent
// cleanup, like unlink of a consumed offload file).
func (b *BlockStore[K]) Delete(path K) { b.remove(path) }

// Used returns the bytes currently stored.
func (b *BlockStore[K]) Used() units.Bytes { return b.used }

// PeakUsed returns the high-water mark of stored bytes — the "max
// activations size per GPU" measurement of Fig 5's diamonds.
func (b *BlockStore[K]) PeakUsed() units.Bytes { return b.peak }

// Written returns cumulative bytes written.
func (b *BlockStore[K]) Written() units.Bytes { return b.written }

// Read returns cumulative bytes read.
func (b *BlockStore[K]) Read() units.Bytes { return b.read }

// Deleted returns cumulative bytes deleted.
func (b *BlockStore[K]) Deleted() units.Bytes { return b.deleted }

// AdvanceTraffic adds analytic deltas to the cumulative traffic counters
// without touching any file. The steady-state fast path uses it to account
// extrapolated training cycles, whose per-cycle file churn is net-zero by
// construction (used and peak are unchanged).
func (b *BlockStore[K]) AdvanceTraffic(written, read, deleted units.Bytes) {
	b.written += written
	b.read += read
	b.deleted += deleted
}

// Count returns the number of stored files.
func (b *BlockStore[K]) Count() int { return len(b.files) }
