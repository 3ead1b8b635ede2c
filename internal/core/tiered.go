package core

import (
	"errors"
	"fmt"
	"time"

	"ssdtrain/internal/spans"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

// placeCounter names the flight-recorder counter for a placement decision.
// The hierarchy has no timestamp of its own (routing is instantaneous), so
// placement is reported as counters rather than spans.
func placeCounter(k TierKind) string {
	if k == TierDRAM {
		return "tiered.place.dram"
	}
	return "tiered.place.nvme"
}

// StackView is a placement policy's read-only view of the hierarchy: the
// ordered tier stack (fastest first, by convention DRAM before NVMe) and
// the cumulative bytes the hierarchy has routed to each tier.
type StackView struct {
	Tiers  []Tier
	Placed []units.Bytes
}

// fits reports whether tier i can absorb n more bytes right now.
func (v StackView) fits(i int, n units.Bytes) bool {
	t := v.Tiers[i]
	cap := t.Capacity()
	return cap == 0 || t.Used()+n <= cap
}

// PlacementPolicy routes each stored tensor to one tier of the stack.
// Policies are consulted once per store, see the live stack state, and
// must be deterministic — the simulator's byte-identical replays depend
// on it.
type PlacementPolicy interface {
	// Name identifies the policy (e.g. "dram-first").
	Name() string
	// Place returns the index of the tier that should hold a tensor of n
	// bytes. Returning an index whose tier cannot hold the tensor makes
	// the store fail with that tier's error.
	Place(v StackView, n units.Bytes) int
}

// ssdOnlyPolicy is the paper's placement: everything goes to the NVMe
// array, ignoring any DRAM rungs in the stack.
type ssdOnlyPolicy struct{}

func (ssdOnlyPolicy) Name() string { return "ssd-only" }

func (ssdOnlyPolicy) Place(v StackView, n units.Bytes) int {
	for i := len(v.Tiers) - 1; i >= 0; i-- {
		if v.Tiers[i].Kind() == TierNVMe {
			return i
		}
	}
	return len(v.Tiers) - 1
}

// SSDOnlyPolicy returns the paper's NVMe-only placement.
func SSDOnlyPolicy() PlacementPolicy { return ssdOnlyPolicy{} }

// dramFirstPolicy fills the stack front to back: each tensor lands on the
// first tier with room, spilling overflow to the next rung (the
// 10Cache/ZeRO-Offload posture: DRAM is the first rung, NVMe absorbs the
// overflow).
type dramFirstPolicy struct{}

func (dramFirstPolicy) Name() string { return "dram-first" }

func (dramFirstPolicy) Place(v StackView, n units.Bytes) int {
	for i := range v.Tiers {
		if v.fits(i, n) {
			return i
		}
	}
	return len(v.Tiers) - 1
}

// DRAMFirstPolicy returns the fill-first placement.
func DRAMFirstPolicy() PlacementPolicy { return dramFirstPolicy{} }

// splitPolicy routes tensors so the first tier holds roughly the target
// fraction of all placed bytes, keeping both PCIe paths (host DMA and
// GDS) busy in proportion. A greedy balance against the running totals is
// deterministic and needs no global knowledge of the step's volume.
type splitPolicy struct {
	frac float64
}

func (p splitPolicy) Name() string { return fmt.Sprintf("split(%.2f)", p.frac) }

func (p splitPolicy) Place(v StackView, n units.Bytes) int {
	if len(v.Tiers) == 1 {
		return 0
	}
	var total units.Bytes
	for _, b := range v.Placed {
		total += b
	}
	// Placing n on tier 0 keeps its share at or below the target only if
	// (placed0 + n) ≤ frac · (total + n); otherwise tier 1+ absorbs it.
	if float64(v.Placed[0]+n) <= p.frac*float64(total+n) && v.fits(0, n) {
		return 0
	}
	for i := 1; i < len(v.Tiers); i++ {
		if v.fits(i, n) {
			return i
		}
	}
	return len(v.Tiers) - 1
}

// balance is how far the first tier's placed bytes stand above the
// target fraction of all placed bytes. Place routes a tensor of n bytes
// to the first tier only while balance + (1−frac)·n ≤ 0, so the
// decisions read the running totals themselves, not only their growth.
func (p splitPolicy) balance(placed []units.Bytes) float64 {
	var total units.Bytes
	for _, b := range placed {
		total += b
	}
	return float64(placed[0]) - p.frac*float64(total)
}

// SplitPolicy returns a placement that routes the given fraction of
// placed bytes to the first tier and the remainder down the stack.
func SplitPolicy(frac float64) PlacementPolicy {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return splitPolicy{frac: frac}
}

// placement records where an ID lives and how big it is.
type placement struct {
	tier int
	size units.Bytes
}

// TieredOffloader composes an ordered stack of tiers under a placement
// policy, presenting them to the tensor cache as one Offloader. Each
// store consults the policy, each load and delete routes to the tier
// that holds the ID, and accounting aggregates across the stack. A
// one-tier stack is a zero-cost adapter: every call forwards to the tier
// unchanged, which is what keeps the paper's single-target strategies
// byte-identical when expressed as degenerate stacks.
type TieredOffloader struct {
	name   string
	tiers  []Tier
	policy PlacementPolicy

	// where is made at the first store, sized for hint blocks (Presize),
	// so a stack nothing is stored to never allocates a table.
	where  map[TensorID]placement
	hint   int
	placed []units.Bytes

	used units.Bytes
	peak units.Bytes

	rec *spans.Recorder

	// steadyPlaced/steadyDPlaced are the steady-state fold bookkeeping for
	// the per-tier routing totals (steady.go).
	steadyPlaced  []units.Bytes
	steadyDPlaced []units.Bytes
}

// NewTieredOffloader builds a hierarchy over the given tier stack
// (fastest rung first). The stack must not be empty.
func NewTieredOffloader(policy PlacementPolicy, tiers ...Tier) *TieredOffloader {
	if len(tiers) == 0 {
		panic("core: tiered offloader needs at least one tier")
	}
	if policy == nil {
		policy = DRAMFirstPolicy()
	}
	return &TieredOffloader{
		name:   tieredName(tiers),
		tiers:  tiers,
		policy: policy,
		placed: make([]units.Bytes, len(tiers)),
	}
}

// tieredName is the stack's diagnostic name, "tiered(a,b)", built in one
// allocation.
func tieredName(tiers []Tier) string {
	var buf [64]byte
	b := append(buf[:0], "tiered("...)
	for i, t := range tiers {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t.Name()...)
	}
	return string(append(b, ')'))
}

// Reset rebinds the hierarchy to a (possibly different) tier stack and
// policy and clears all placement state for reuse by a new simulation.
// A recycled arena owns one offloader whose stack composition can change
// between runs (a dram-first hybrid with zero DRAM grant degenerates to
// NVMe-only), so the stack is an argument rather than construction-fixed.
// The member tiers are reset separately by their owner. Map buckets and
// slice capacity are retained; the diagnostic name is rebuilt only when
// the stack actually changed.
func (o *TieredOffloader) Reset(policy PlacementPolicy, tiers ...Tier) {
	if len(tiers) == 0 {
		panic("core: tiered offloader needs at least one tier")
	}
	if policy == nil {
		policy = DRAMFirstPolicy()
	}
	if !sameTiers(o.tiers, tiers) {
		o.tiers = append(o.tiers[:0], tiers...)
		o.name = tieredName(tiers)
	}
	o.policy = policy
	clear(o.where)
	if cap(o.placed) >= len(o.tiers) {
		o.placed = o.placed[:len(o.tiers)]
		for i := range o.placed {
			o.placed[i] = 0
		}
	} else {
		o.placed = make([]units.Bytes, len(o.tiers))
	}
	o.used, o.peak = 0, 0
	o.steadyPlaced = o.steadyPlaced[:0]
	o.steadyDPlaced = o.steadyDPlaced[:0]
}

// sameTiers reports whether the stacks hold the same tiers in order.
func sameTiers(a, b []Tier) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Presize sizes the placement table for n blocks. Call it before the
// first store.
func (o *TieredOffloader) Presize(n int) { o.hint = n }

// SetRecorder attaches the flight recorder placement counters are
// reported to. Like tier wiring, the recorder survives Reset.
func (o *TieredOffloader) SetRecorder(rec *spans.Recorder) { o.rec = rec }

// Name implements Offloader.
func (o *TieredOffloader) Name() string { return o.name }

// Policy returns the active placement policy.
func (o *TieredOffloader) Policy() PlacementPolicy { return o.policy }

// Tiers returns the ordered tier stack.
func (o *TieredOffloader) Tiers() []Tier { return o.tiers }

// TierOf reports which tier holds the ID (-1 if none).
func (o *TieredOffloader) TierOf(id TensorID) int {
	p, ok := o.where[id]
	if !ok {
		return -1
	}
	return p.tier
}

// PlacedBytes returns cumulative bytes routed to each tier.
func (o *TieredOffloader) PlacedBytes() []units.Bytes {
	out := make([]units.Bytes, len(o.placed))
	copy(out, o.placed)
	return out
}

// Store implements Offloader: route the tensor to the policy's tier.
// Re-storing a live ID overwrites it; the old copy is dropped only once
// the new store succeeded, so a refused store leaves the previous data
// loadable (the error contract the cache relies on).
func (o *TieredOffloader) Store(id TensorID, t *tensor.Tensor, ready time.Duration) (time.Duration, time.Duration, error) {
	n := t.Bytes()
	i := o.policy.Place(StackView{Tiers: o.tiers, Placed: o.placed}, n)
	if i < 0 || i >= len(o.tiers) {
		return 0, 0, fmt.Errorf("core: policy %s placed %v outside the %d-tier stack", o.policy.Name(), id, len(o.tiers))
	}
	start, finish, err := o.tiers[i].Store(id, t, ready)
	if err != nil {
		// A failed device is a survivable event when another rung has
		// room: re-place the tensor on the first surviving tier that fits
		// (stack order). Overflow and other errors keep their existing
		// contract — only device failure spills.
		var df *DeviceFailedError
		if !errors.As(err, &df) {
			return 0, 0, err
		}
		for j := range o.tiers {
			if j == i || !(StackView{Tiers: o.tiers, Placed: o.placed}).fits(j, n) {
				continue
			}
			if start, finish, err = o.tiers[j].Store(id, t, ready); err == nil {
				i = j
				break
			}
		}
		if err != nil {
			return 0, 0, err
		}
		o.rec.Count("tiered.spill", 1)
	}
	o.rec.Count(placeCounter(o.tiers[i].Kind()), 1)
	if prev, ok := o.where[id]; ok {
		// Same tier: its block store already overwrote the file in place.
		if prev.tier != i {
			o.tiers[prev.tier].Delete(id)
		}
		o.used -= prev.size
	}
	if o.where == nil {
		o.where = make(map[TensorID]placement, o.hint)
	}
	o.where[id] = placement{tier: i, size: n}
	o.placed[i] += n
	o.used += n
	if o.used > o.peak {
		o.peak = o.used
	}
	return start, finish, nil
}

// Load implements Offloader: route to the tier that holds the ID.
func (o *TieredOffloader) Load(id TensorID, ready time.Duration) (time.Duration, time.Duration, []byte, error) {
	p, ok := o.where[id]
	if !ok {
		return 0, 0, nil, &MissingBlockError{Tier: o.name, ID: id}
	}
	return o.tiers[p.tier].Load(id, ready)
}

// Delete implements Offloader.
func (o *TieredOffloader) Delete(id TensorID) {
	p, ok := o.where[id]
	if !ok {
		return
	}
	o.tiers[p.tier].Delete(id)
	o.used -= p.size
	delete(o.where, id)
}

// WriteBandwidth implements Offloader: the aggregate store-path rate of
// the stack (the rungs drain over independent PCIe paths).
func (o *TieredOffloader) WriteBandwidth() units.Bandwidth {
	var sum units.Bandwidth
	for _, t := range o.tiers {
		sum += t.WriteBandwidth()
	}
	return sum
}

// ReadBandwidth implements Offloader: the aggregate load-path rate.
func (o *TieredOffloader) ReadBandwidth() units.Bandwidth {
	var sum units.Bandwidth
	for _, t := range o.tiers {
		sum += t.ReadBandwidth()
	}
	return sum
}

// BytesWritten implements Offloader.
func (o *TieredOffloader) BytesWritten() units.Bytes {
	var sum units.Bytes
	for _, t := range o.tiers {
		sum += t.BytesWritten()
	}
	return sum
}

// BytesRead implements Offloader.
func (o *TieredOffloader) BytesRead() units.Bytes {
	var sum units.Bytes
	for _, t := range o.tiers {
		sum += t.BytesRead()
	}
	return sum
}

// PeakResident implements Offloader: the high-water mark of bytes live
// across the whole stack (not the sum of per-tier peaks, which can
// overcount when rungs peak at different times).
func (o *TieredOffloader) PeakResident() units.Bytes {
	if len(o.tiers) == 1 {
		return o.tiers[0].PeakResident()
	}
	return o.peak
}

var _ Offloader = (*TieredOffloader)(nil)
