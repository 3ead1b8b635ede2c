package core

import (
	"errors"
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

// placement records where an ID lives and how big it is.
type placement struct {
	tier int
	size units.Bytes
}

// TieredOffloader composes an ordered stack of tiers (fastest rung
// first, by convention DRAM before NVMe) under one routing rule and
// presents them to the tensor cache as one target. The rule reads a
// DRAM share in [0, 1]: the fraction of offloaded bytes the first rung
// may take (not the SSD bandwidth share). Each store goes to the first
// rung while its placed bytes stay within the share of all placed bytes
// and it has room, else to the first later rung with room, else to the
// last rung. So share 0 is the paper's NVMe-only placement, share 1 fills
// DRAM first and spills to NVMe (the 10Cache/ZeRO-Offload posture), and
// a share between them splits the bytes, keeping both PCIe paths (host
// DMA and GDS) busy in proportion; the greedy balance against running
// totals is deterministic and needs no knowledge of the step's volume.
// Each load and delete routes to the tier that holds the ID. A one-tier
// stack routes every store to its rung, which is what keeps the paper's
// single-target strategies byte-identical as degenerate stacks.
type TieredOffloader struct {
	name  string
	tiers []Tier
	share float64

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
// (fastest rung first) with the given DRAM share. The stack must not be
// empty.
func NewTieredOffloader(share float64, tiers ...Tier) *TieredOffloader {
	if len(tiers) == 0 {
		panic("core: tiered offloader needs at least one tier")
	}
	return &TieredOffloader{
		name:   tieredName(tiers),
		tiers:  tiers,
		share:  share,
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
// DRAM share and clears all placement state for reuse by a new
// simulation. A recycled arena owns one offloader whose stack
// composition can change between runs (a hybrid with zero DRAM grant
// degenerates to NVMe-only), so the stack is an argument rather than
// construction-fixed. The member tiers are reset separately by their
// owner. Map buckets and slice capacity are retained; the diagnostic name
// is rebuilt only when the stack actually changed.
func (o *TieredOffloader) Reset(share float64, tiers ...Tier) {
	if len(tiers) == 0 {
		panic("core: tiered offloader needs at least one tier")
	}
	if !sameTiers(o.tiers, tiers) {
		o.tiers = append(o.tiers[:0], tiers...)
		o.name = tieredName(tiers)
	}
	o.share = share
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

// Name is the stack's diagnostic name, "tiered(a,b)".
func (o *TieredOffloader) Name() string { return o.name }

// Tiers returns the ordered tier stack.
func (o *TieredOffloader) Tiers() []Tier { return o.tiers }

// fits reports whether tier i can absorb n more bytes right now.
func (o *TieredOffloader) fits(i int, n units.Bytes) bool {
	t := o.tiers[i]
	cap := t.Capacity()
	return cap == 0 || t.Used()+n <= cap
}

// placedTotal is the bytes routed to the whole stack.
func (o *TieredOffloader) placedTotal() units.Bytes {
	var total units.Bytes
	for _, b := range o.placed {
		total += b
	}
	return total
}

// place is the routing rule: the index of the tier that takes a tensor
// of n bytes. Placing it on the first tier keeps that tier's share at or
// below the DRAM share only if placed0 + n ≤ share · (total + n). At
// share 1 the test always passes (placed0 ≤ total, and the float64
// conversion keeps order), so the rule fills front to back; at share 0
// it always fails, since every stored tensor has n > 0.
func (o *TieredOffloader) place(n units.Bytes) int {
	if float64(o.placed[0]+n) <= o.share*float64(o.placedTotal()+n) && o.fits(0, n) {
		return 0
	}
	for i := 1; i < len(o.tiers); i++ {
		if o.fits(i, n) {
			return i
		}
	}
	return len(o.tiers) - 1
}

// balance is how far the first tier's placed bytes stand above the DRAM
// share of all placed bytes. place routes a tensor of n bytes to the
// first tier only while balance + (1−share)·n ≤ 0, so for a share
// strictly between 0 and 1 the decisions read the running totals
// themselves, not only their growth.
func (o *TieredOffloader) balance() float64 {
	return float64(o.placed[0]) - o.share*float64(o.placedTotal())
}

// AppendPlans appends the planner's view of the stack to dst, one
// TierPlan per rung the share lets take bytes. A zero share routes
// nothing to the DRAM rung, so it drops out of the plan (a Fraction of 0
// means no share cap, not nothing); otherwise the DRAM rung's Fraction
// is the share, and a Fraction of 1 caps nothing. The optimizer
// placement's per-step shuttle volumes become per-rung reserves,
// derating the activation plan's bandwidths by the competing traffic;
// the zero placement leaves the plans untouched.
func (o *TieredOffloader) AppendPlans(dst []TierPlan, optim OptimPlacement) []TierPlan {
	for _, t := range o.tiers {
		tp := TierPlan{
			WriteBandwidth: t.WriteBandwidth(),
			ReadBandwidth:  t.ReadBandwidth(),
			Capacity:       t.Capacity(),
		}
		switch t.Kind() {
		case TierDRAM:
			if o.share <= 0 {
				continue
			}
			tp.Fraction = o.share
			tp.WriteReserve = optim.DRAMWritePerStep
			tp.ReadReserve = optim.DRAMReadPerStep
		case TierNVMe:
			tp.WriteReserve = optim.NVMeWritePerStep
			tp.ReadReserve = optim.NVMeReadPerStep
		}
		dst = append(dst, tp)
	}
	return dst
}

// Store routes the tensor by the share rule. Re-storing a live ID
// overwrites it; the old copy is dropped only once the new store
// succeeded, so a refused store leaves the previous data loadable (the
// error contract the cache relies on).
func (o *TieredOffloader) Store(id TensorID, t *tensor.Tensor, ready time.Duration) (time.Duration, time.Duration, error) {
	n := t.Bytes()
	i := o.place(n)
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
			if j == i || !o.fits(j, n) {
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

// Load routes to the tier that holds the ID.
func (o *TieredOffloader) Load(id TensorID, ready time.Duration) (time.Duration, time.Duration, []byte, error) {
	p, ok := o.where[id]
	if !ok {
		return 0, 0, nil, &MissingBlockError{Tier: o.name, ID: id}
	}
	return o.tiers[p.tier].Load(id, ready)
}

// Delete routes to the tier that holds the ID.
func (o *TieredOffloader) Delete(id TensorID) {
	p, ok := o.where[id]
	if !ok {
		return
	}
	o.tiers[p.tier].Delete(id)
	o.used -= p.size
	delete(o.where, id)
}

// PeakResident is the high-water mark of bytes live
// across the whole stack (not the sum of per-tier peaks, which can
// overcount when rungs peak at different times).
func (o *TieredOffloader) PeakResident() units.Bytes {
	if len(o.tiers) == 1 {
		return o.tiers[0].PeakResident()
	}
	return o.peak
}
