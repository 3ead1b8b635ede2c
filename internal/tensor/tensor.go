package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"unsafe"

	"ssdtrain/internal/units"
)

// Device identifies where a storage lives.
type Device uint8

// Device kinds.
const (
	// GPU is device memory; the default home of activations.
	GPU Device = iota
	// CPU is host memory; CPU-resident tensors are never offloaded
	// (Alg. 1 line 2).
	CPU
)

// String names the device.
func (d Device) String() string {
	if d == CPU {
		return "cpu"
	}
	return "gpu"
}

var storageSeq atomic.Int64

// Storage is the allocation backing one or more tensor views — the
// analogue of PyTorch's UntypedStorage. The SSDTrain cache stamps its
// deduplication timestamp here rather than on the Tensor, because PyTorch
// (and this runtime) may create fresh Tensor objects viewing the same
// allocation, and all of them must map to one offload record.
type Storage struct {
	// seq is a process-unique allocation number, used only for diagnostics;
	// it is deliberately NOT the cache identifier (the paper explains that
	// address/object-identity based IDs collide once memory is recycled).
	seq   int64
	bytes units.Bytes

	// stamp is the cache-assigned logical timestamp (0 = unassigned). It is
	// the paper's "additional attribute added to t.untyped_storage()".
	stamp int64

	// data is the optional real payload. Experiments that only need timing
	// leave it nil; I/O-correctness tests materialize it.
	data []byte

	// strong is the number of strong references held by the runtime and
	// the cache. The executor frees the storage when it reaches zero.
	strong int

	// The one-byte fields come last, so a tensor and its storage fit one
	// 128-byte allocation (New).
	device Device
	// freed marks the storage as released; weak references observe this.
	freed bool
}

// initStorage is the single construction path for storage metadata; both
// NewStorage and the combined tensor+storage boxes of New and Slab go
// through it so their invariants cannot diverge.
func initStorage(s *Storage, n units.Bytes, dev Device) {
	if n < 0 {
		panic(fmt.Sprintf("tensor: negative storage size %d", n))
	}
	*s = Storage{seq: storageSeq.Add(1), bytes: n, device: dev}
}

// NewStorage allocates storage metadata of the given byte size on the
// device. The payload is not materialized.
func NewStorage(n units.Bytes, dev Device) *Storage {
	s := &Storage{}
	initStorage(s, n, dev)
	return s
}

// Seq returns the diagnostic allocation number.
func (s *Storage) Seq() int64 { return s.seq }

// Bytes returns the storage size.
func (s *Storage) Bytes() units.Bytes { return s.bytes }

// Device returns where the storage lives.
func (s *Storage) Device() Device { return s.device }

// Stamp returns the cache-assigned timestamp (0 if unassigned).
func (s *Storage) Stamp() int64 { return s.stamp }

// SetStamp assigns the cache timestamp. Assigning twice with different
// values panics: a storage's identity must never change.
func (s *Storage) SetStamp(v int64) {
	if v <= 0 {
		panic("tensor: stamp must be positive")
	}
	if s.stamp != 0 && s.stamp != v {
		panic(fmt.Sprintf("tensor: storage %d re-stamped %d -> %d", s.seq, s.stamp, v))
	}
	s.stamp = v
}

// Freed reports whether the storage has been released.
func (s *Storage) Freed() bool { return s.freed }

// ResetForReuse returns the storage to its just-constructed state —
// unstamped, unreferenced, unmaterialized — while keeping its size,
// device and allocation number. This is the in-place alternative to
// rebinding views onto a brand-new storage: a recycled execution arena
// "re-zeroes" its weight and activation storages between runs, and the
// cache's ID source then restamps them exactly as it would stamp fresh
// allocations. The caller owns the invariant that nothing live still
// references the storage.
func (s *Storage) ResetForReuse() {
	s.stamp = 0
	s.strong = 0
	s.freed = false
	s.data = nil
}

// Retain adds a strong reference.
func (s *Storage) Retain() {
	if s.freed {
		panic(fmt.Sprintf("tensor: retain of freed storage %d", s.seq))
	}
	s.strong++
}

// Release drops a strong reference and reports whether the storage became
// free (refcount hit zero). The caller owns the consequence (returning the
// bytes to the allocator at the right virtual time).
func (s *Storage) Release() bool {
	if s.freed {
		panic(fmt.Sprintf("tensor: release of freed storage %d", s.seq))
	}
	if s.strong <= 0 {
		panic(fmt.Sprintf("tensor: refcount underflow on storage %d", s.seq))
	}
	s.strong--
	if s.strong == 0 {
		s.freed = true
		s.data = nil
		return true
	}
	return false
}

// Materialize fills the payload deterministically from the seed. It is
// idempotent for a given seed and enables byte-exact offload round-trip
// verification.
func (s *Storage) Materialize(seed uint64) {
	if s.freed {
		panic(fmt.Sprintf("tensor: materialize of freed storage %d", s.seq))
	}
	if s.data != nil {
		return
	}
	s.data = make([]byte, s.bytes)
	fillDeterministic(s.data, seed)
}

// Data returns the payload (nil if never materialized).
func (s *Storage) Data() []byte { return s.data }

// SetData installs a payload buffer, used when reloading from the offload
// target. The buffer length must match the storage size.
func (s *Storage) SetData(b []byte) {
	if units.Bytes(len(b)) != s.bytes {
		panic(fmt.Sprintf("tensor: payload size %d != storage size %d", len(b), s.bytes))
	}
	s.data = b
}

// Checksum returns a CRC32 over the payload, or 0 when not materialized.
func (s *Storage) Checksum() uint32 {
	if s.data == nil {
		return 0
	}
	return crc32.ChecksumIEEE(s.data)
}

// littleEndian reports whether the host stores a word least significant
// byte first, the byte order of the payload stream.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// fillDeterministic writes a fast xorshift64* stream derived from seed
// into b, one little-endian word per 8 bytes.
//
// On a little-endian host it stores whole words through a uint64 view
// of b, the one use of unsafe in the repository. The race detector
// instruments a PutUint64 as eight one-byte stores and a word store as
// one, and materialized runs fill every activation payload, so under
// -race this view is what keeps the verified-offload tests in CI's time
// budget. Other hosts, unaligned payloads and the tail take fillWords.
func fillDeterministic(b []byte, seed uint64) {
	x := seed | 1
	if n := len(b) / 8; littleEndian && n > 0 && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
		for i := range words {
			x = xorshift(x)
			words[i] = x * xorshiftStar
		}
		b = b[n*8:]
	}
	fillWords(b, x)
}

// fillWords is the portable fill, continuing the stream from state x:
// each word goes through PutUint64, and the last is truncated at the end
// of b.
func fillWords(b []byte, x uint64) {
	for i := 0; i < len(b); i += 8 {
		x = xorshift(x)
		if w := x * xorshiftStar; len(b)-i >= 8 {
			binary.LittleEndian.PutUint64(b[i:], w)
		} else {
			var tail [8]byte
			binary.LittleEndian.PutUint64(tail[:], w)
			copy(b[i:], tail[:])
		}
	}
}

// xorshiftStar is xorshift64*'s output multiplier: word = state × it.
const xorshiftStar = 0x2545F4914F6CDD1D

// xorshift advances the xorshift64 state.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// Tensor is a shaped, typed view of a storage — the object the model
// runtime passes around and the cache's pack hook inspects.
type Tensor struct {
	name    string
	shape   Shape
	storage *Storage
	dtype   DType
	// weight marks parameters (and their transposed views); the cache
	// excludes them from offloading (§III-C1).
	weight bool
}

// box is a tensor and the storage it owns, allocated together: a
// tensor New makes costs one heap object, and one from a Slab a share of
// one.
type box struct {
	t Tensor
	s Storage
}

// New allocates a fresh tensor with its own storage on the device. The
// tensor and its storage come from one combined allocation.
func New(name string, shape Shape, dt DType, dev Device) *Tensor {
	var s Slab
	return s.New(name, shape, dt, dev)
}

// Slab hands out tensors that own their storage from one allocation
// instead of one each. A fresh execution arena knows how many tensors it
// will create before it creates them (its graph's footprint), so it
// reserves them at once.
type Slab struct{ boxes []box }

// Len returns how many tensors are left in the reserved room.
func (s *Slab) Len() int { return len(s.boxes) }

// Reserve makes the next n New calls take their tensors from one
// allocation. Room left over from an earlier Reserve is dropped unless
// it already holds n.
func (s *Slab) Reserve(n int) {
	if len(s.boxes) < n {
		s.boxes = make([]box, n)
	}
}

// New is the package-level New, taking the tensor from the reserved room
// while any is left.
func (s *Slab) New(name string, shape Shape, dt DType, dev Device) *Tensor {
	var b *box
	if len(s.boxes) > 0 {
		b, s.boxes = &s.boxes[0], s.boxes[1:]
	} else {
		b = new(box)
	}
	b.t = Tensor{name: name, shape: shape, dtype: dt, storage: &b.s}
	initStorage(&b.s, units.Bytes(shape.NumElems()*int64(dt.Size())), dev)
	return &b.t
}

// NewWeight is the package-level NewWeight, from the slab.
func (s *Slab) NewWeight(name string, shape Shape, dt DType, dev Device) *Tensor {
	t := s.New(name, shape, dt, dev)
	t.weight = true
	return t
}

// Recycle re-initializes t, which must own its storage (New or a Slab
// made it), as a fresh tensor of another name, shape and type: the
// storage keeps its allocation number and device, is resized for the
// shape, and is left unstamped, unreferenced and unmaterialized, as
// ResetForReuse leaves it. A pool of interchangeable buffers, such as
// the tensor cache's reload buffers, serves tensors of any shape this
// way.
func (t *Tensor) Recycle(name string, shape Shape, dt DType) {
	t.storage.ResetForReuse()
	t.storage.bytes = units.Bytes(shape.NumElems() * int64(dt.Size()))
	t.name, t.shape, t.dtype = name, shape, dt
}

// NewWeight allocates a parameter tensor (flagged as a weight).
func NewWeight(name string, shape Shape, dt DType, dev Device) *Tensor {
	var s Slab
	return s.NewWeight(name, shape, dt, dev)
}

// WithStorage returns a copy of the tensor view bound to a different
// storage of the same size — the mechanism graph instantiation uses to
// rebind weight views (including transposed tied views) onto fresh
// storages while preserving which views share an allocation.
func (t *Tensor) WithStorage(s *Storage) *Tensor {
	if s.bytes != t.storage.bytes {
		panic(fmt.Sprintf("tensor: rebind of %s onto storage of %d bytes (have %d)",
			t.name, s.bytes, t.storage.bytes))
	}
	return &Tensor{name: t.name, shape: t.shape, dtype: t.dtype, storage: s, weight: t.weight}
}

// View returns a new tensor sharing this tensor's storage with a different
// shape. The element count must match.
func (t *Tensor) View(name string, shape Shape) *Tensor {
	if shape.NumElems() != t.shape.NumElems() {
		panic(fmt.Sprintf("tensor: view %v of %v changes element count", shape, t.shape))
	}
	return &Tensor{name: name, shape: shape, dtype: t.dtype, storage: t.storage, weight: t.weight}
}

// Transpose returns the transposed view sharing storage — the view linear
// layers register on the computation graph for backward (§III-C1).
func (t *Tensor) Transpose() *Tensor {
	return t.TransposeInto(new(Tensor), t.name+".T", make(Shape, len(t.shape)))
}

// TransposeInto is Transpose building the view in v, under the given
// name, with its shape written into dims (one int per dimension of t),
// and returns v. An executor builds all its transposed weight views from
// one array of views and one of dimensions this way.
func (t *Tensor) TransposeInto(v *Tensor, name string, dims Shape) *Tensor {
	copy(dims, t.shape)
	if n := len(dims); n >= 2 {
		dims[n-1], dims[n-2] = dims[n-2], dims[n-1]
	}
	*v = Tensor{name: name, shape: dims, dtype: t.dtype, storage: t.storage, weight: t.weight}
	return v
}

// Name returns the tensor's diagnostic name.
func (t *Tensor) Name() string { return t.name }

// Shape returns the tensor's shape.
func (t *Tensor) Shape() Shape { return t.shape }

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Storage returns the backing storage.
func (t *Tensor) Storage() *Storage { return t.storage }

// Device returns where the tensor lives.
func (t *Tensor) Device() Device { return t.storage.device }

// Bytes returns the view's logical size (elements × element size).
func (t *Tensor) Bytes() units.Bytes {
	return units.Bytes(t.shape.NumElems() * int64(t.dtype.Size()))
}

// NumElems returns the number of elements in the view.
func (t *Tensor) NumElems() int64 { return t.shape.NumElems() }

// IsWeight reports whether the tensor is a parameter or a parameter view.
func (t *Tensor) IsWeight() bool { return t.weight }

// IsCPU reports whether the tensor lives in host memory.
func (t *Tensor) IsCPU() bool { return t.storage.device == CPU }

// String renders a diagnostic description.
func (t *Tensor) String() string {
	return fmt.Sprintf("%s%v:%s@%s", t.name, t.shape, t.dtype, t.Device())
}

// WeakRef is a non-owning reference to a tensor, the mechanism behind the
// paper's data forwarding: while a tensor is being stored the cache keeps
// only a weak reference, and an unpack that arrives before the store
// completes upgrades it to a strong reference instead of reading the SSD.
type WeakRef struct {
	t *Tensor
}

// Weak creates a weak reference to t.
func Weak(t *Tensor) WeakRef { return WeakRef{t: t} }

// Get returns the tensor if its storage is still live, or nil if it has
// been freed.
func (w WeakRef) Get() *Tensor {
	if w.t == nil || w.t.storage.freed {
		return nil
	}
	return w.t
}
