package core

import (
	"time"

	"ssdtrain/internal/units"
)

// ModulePlan describes the graph at module granularity for the planner:
// parallel slices of per-module saved-activation bytes and backward
// compute time, in forward order.
type ModulePlan struct {
	SavedBytes []units.Bytes
	BwdTime    []time.Duration
	// ReadBandwidth/WriteBandwidth are the offloader's path rates.
	ReadBandwidth  units.Bandwidth
	WriteBandwidth units.Bandwidth
	// ForwardTime/BackwardTime bound the store drain window.
	ForwardTime  time.Duration
	BackwardTime time.Duration
	// SafetyFactor derates bandwidth; zero selects 0.9.
	SafetyFactor float64
}

// PlanModuleBudget sets the offload amount at module granularity — the
// full Fig 3 workflow. Backward consumes modules in reverse order, so the
// planner offloads the longest prefix of modules whose reloads all hide
// behind the backward compute of the modules after them:
//
//	for every offloaded module i:
//	    (Σ_{k=i..j-1} saved_k) / readBW  ≤  Σ_{k>i} bwd_k
//
// where j is the first kept module. Everything past the budget stays in
// GPU memory (Alg. 1's is_offload_amount_reached), which automatically
// keeps the tail modules — including the last one (Fig 2 ④).
func PlanModuleBudget(in ModulePlan) units.Bytes {
	sf := in.SafetyFactor
	if sf <= 0 || sf > 1 {
		sf = 0.9
	}
	m := len(in.SavedBytes)
	if m == 0 || m != len(in.BwdTime) {
		return 0
	}
	// The reload deadline check uses the raw read bandwidth: a marginal
	// miss degrades gracefully (the still-stored tensors forward from
	// memory), so the safety factor applies only to the store-drain clamp.
	readBW := float64(in.ReadBandwidth)
	if readBW <= 0 {
		return 0
	}
	// bwdAfter[i] = Σ_{k>i} bwd_k.
	bwdAfter := make([]float64, m)
	var cum float64
	for i := m - 1; i >= 0; i-- {
		bwdAfter[i] = cum
		cum += in.BwdTime[i].Seconds()
	}
	feasible := func(j int) bool { // offload modules [0, j)
		var load float64 // seconds of reload from module i to j-1
		for i := j - 1; i >= 0; i-- {
			load += float64(in.SavedBytes[i]) / readBW
			// A module's tensors are consumed spread across its own
			// backward, so half of it extends the deadline window.
			if load > bwdAfter[i]+in.BwdTime[i].Seconds()/2 {
				return false
			}
		}
		return true
	}
	// The last module is never offloaded (backward needs it immediately).
	j := m - 1
	for j > 0 && !feasible(j) {
		j--
	}
	var budget units.Bytes
	for i := 0; i < j; i++ {
		budget += in.SavedBytes[i]
	}
	// Store-side clamp: bytes the write path cannot drain before reloads
	// would need them just waste endurance (they get forwarded anyway).
	drainWindow := in.ForwardTime + in.BackwardTime/2
	if writable := units.Bytes(sf * float64(in.WriteBandwidth) * drainWindow.Seconds()); in.WriteBandwidth > 0 && writable < budget {
		budget = writable
	}
	return budget
}

// TierPlan describes one rung of an offload hierarchy for budget
// planning: its path bandwidths, its byte capacity (0 = unbounded) and
// an optional cap on its share of the planned volume (split placement;
// 0 = no share cap). Nothing spills below the last rung of a stack, so
// a bounded last rung (a lone pinned pool) caps the whole budget at its
// derated capacity — planning more than the pool holds would only
// overflow it at run time.
type TierPlan struct {
	WriteBandwidth units.Bandwidth
	ReadBandwidth  units.Bandwidth
	Capacity       units.Bytes
	Fraction       float64
	// WriteReserve/ReadReserve are per-step byte volumes competing traffic
	// (the offloaded optimizer's gradient/state/parameter shuttles) will
	// push through the same rung each step. The planner derates the rung's
	// bandwidths by the slice of the step's compute window that traffic
	// occupies before planning activations against it. Zero reserves leave
	// the plan arithmetic untouched.
	WriteReserve units.Bytes
	ReadReserve  units.Bytes
}

// derate scales the rung's bandwidths down by the fraction of the window
// its reserved traffic occupies, clamping at zero (a rung whose reserve
// saturates the window contributes no activation budget).
func (t TierPlan) derate(window time.Duration) TierPlan {
	if (t.WriteReserve <= 0 && t.ReadReserve <= 0) || window <= 0 {
		return t
	}
	scale := func(bw units.Bandwidth, reserve units.Bytes) units.Bandwidth {
		if bw <= 0 || reserve <= 0 {
			return bw
		}
		frac := bw.TimeFor(reserve).Seconds() / window.Seconds()
		if frac >= 1 {
			return 0
		}
		return units.Bandwidth(float64(bw) * (1 - frac))
	}
	t.WriteBandwidth = scale(t.WriteBandwidth, t.WriteReserve)
	t.ReadBandwidth = scale(t.ReadBandwidth, t.ReadReserve)
	t.WriteReserve, t.ReadReserve = 0, 0
	return t
}

// volumeCap is the most bytes the planner expects the tier to absorb out
// of a total volume v, honouring both the byte capacity and the share
// cap.
func (t TierPlan) volumeCap(v units.Bytes) units.Bytes {
	out := v
	if t.Capacity > 0 && t.Capacity < out {
		out = t.Capacity
	}
	if t.Fraction > 0 {
		if f := units.Bytes(t.Fraction * float64(v)); f < out {
			out = f
		}
	}
	return out
}

// PlanHierarchyBudget runs the Fig 3 module-granularity workflow over a
// tier mix: the rungs fill front to back (the dram-first posture; split
// placement expresses its routing through per-tier Fraction caps), reload
// deadlines are checked against the blended read bandwidth of the
// expected placement, and the store-drain clamp sums what each rung's
// independent PCIe path can drain — capped by the rung's capacity, so a
// small DRAM pool cannot promise more drain than it can hold.
//
// A mix that degenerates to a single used rung reduces, bit for bit, to
// PlanModuleBudget on that rung's bandwidths (clamped to its capacity
// when it is the bounded last rung): the paper's single-target
// strategies re-expressed as one-tier stacks plan the same budgets.
func PlanHierarchyBudget(in ModulePlan, tiers []TierPlan) units.Bytes {
	if len(tiers) == 0 {
		return 0
	}
	// Rungs carrying reserved competing traffic (optimizer shuttles) plan
	// against derated bandwidths. The caller's slice is copied only when a
	// reserve is present, so reserve-free plans keep their exact arithmetic.
	for i := range tiers {
		if tiers[i].WriteReserve > 0 || tiers[i].ReadReserve > 0 {
			window := in.ForwardTime + in.BackwardTime
			derated := make([]TierPlan, len(tiers))
			for j, t := range tiers {
				derated[j] = t.derate(window)
			}
			tiers = derated
			break
		}
	}
	var total units.Bytes
	for _, sb := range in.SavedBytes {
		total += sb
	}
	// Expected fill at full eligible volume, front to back. Rungs that
	// would take nothing drop out; one surviving rung is the degenerate
	// case.
	take := make([]units.Bytes, len(tiers))
	remaining := total
	var live []int
	for i, t := range tiers {
		take[i] = t.volumeCap(total)
		if take[i] > remaining {
			take[i] = remaining
		}
		remaining -= take[i]
		if take[i] > 0 {
			live = append(live, i)
		}
	}
	// Whatever no rung claimed lands on the last one (unbounded NVMe in
	// practice); keep the accounting consistent for degenerate detection.
	if remaining > 0 {
		last := len(tiers) - 1
		if take[last] == 0 {
			live = append(live, last)
		}
		take[last] += remaining
	}
	if len(live) <= 1 {
		idx := len(tiers) - 1
		if len(live) == 1 {
			idx = live[0]
		}
		in.ReadBandwidth = tiers[idx].ReadBandwidth
		in.WriteBandwidth = tiers[idx].WriteBandwidth
		budget := PlanModuleBudget(in)
		if idx == len(tiers)-1 {
			budget = lastRungClamp(budget, tiers[idx], in.SafetyFactor)
		}
		return budget
	}
	// Blended read bandwidth: reloads of a mixed placement drain each
	// rung in proportion, so the harmonic mean over placed fractions is
	// the conservative effective rate.
	var invRead float64
	for _, i := range live {
		if tiers[i].ReadBandwidth <= 0 {
			return 0
		}
		invRead += float64(take[i]) / float64(total) / float64(tiers[i].ReadBandwidth)
	}
	if invRead <= 0 {
		return 0
	}
	sf := in.SafetyFactor
	if sf <= 0 || sf > 1 {
		sf = 0.9
	}
	// Run the module-prefix workflow on the blended read rate with the
	// write clamp disabled (WriteBandwidth 0), then apply the per-rung
	// drain clamp.
	in.ReadBandwidth = units.Bandwidth(1 / invRead)
	in.WriteBandwidth = 0
	budget := PlanModuleBudget(in)
	drainWindow := in.ForwardTime + in.BackwardTime/2
	var writable units.Bytes
	for _, i := range live {
		w := units.Bytes(sf * float64(tiers[i].WriteBandwidth) * drainWindow.Seconds())
		if c := tiers[i].volumeCap(total); c < w {
			w = c
		}
		writable += w
	}
	if writable < budget {
		budget = writable
	}
	return lastRungClamp(budget, tiers[len(tiers)-1], in.SafetyFactor)
}

// lastRungClamp caps a budget at the last rung's derated capacity, since
// nothing spills below it: residency tracks the offloaded volume
// closely, and the safety factor leaves headroom for the one-tensor
// budget overshoot and in-flight reload buffers. An unbounded last rung
// leaves the budget alone.
func lastRungClamp(budget units.Bytes, tier TierPlan, safetyFactor float64) units.Bytes {
	if tier.Capacity <= 0 {
		return budget
	}
	sf := safetyFactor
	if sf <= 0 || sf > 1 {
		sf = 0.9
	}
	if derated := units.Bytes(sf * float64(tier.Capacity)); derated < budget {
		return derated
	}
	return budget
}
