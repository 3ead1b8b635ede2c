package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"ssdtrain/internal/units"
)

// refPlanModuleBudget is the module planner as first written, kept as
// the reference the allocation-free planner must match bit for bit: it
// tabulates the backward time after each module in a slice.
func refPlanModuleBudget(in ModulePlan) units.Bytes {
	m := len(in.SavedBytes)
	if m == 0 || m != len(in.BwdTime) {
		return 0
	}
	readBW := float64(in.ReadBandwidth)
	if readBW <= 0 {
		return 0
	}
	bwdAfter := make([]float64, m)
	var cum float64
	for i := m - 1; i >= 0; i-- {
		bwdAfter[i] = cum
		cum += in.BwdTime[i].Seconds()
	}
	feasible := func(j int) bool {
		var load float64
		for i := j - 1; i >= 0; i-- {
			load += float64(in.SavedBytes[i]) / readBW
			if load > bwdAfter[i]+in.BwdTime[i].Seconds()/2 {
				return false
			}
		}
		return true
	}
	j := m - 1
	for j > 0 && !feasible(j) {
		j--
	}
	var budget units.Bytes
	for i := 0; i < j; i++ {
		budget += in.SavedBytes[i]
	}
	drainWindow := in.ForwardTime + in.BackwardTime/2
	if writable := units.Bytes(safetyFactor * float64(in.WriteBandwidth) * drainWindow.Seconds()); in.WriteBandwidth > 0 && writable < budget {
		budget = writable
	}
	return budget
}

// refPlanHierarchyBudget is the hierarchy planner as first written: it
// derates a copy of the tiers, tabulates each rung's expected fill and
// the live rungs in slices, spills what no rung claimed onto the last
// one, and only then blends the read rates and sums the drain. It leaves
// the caller's tiers alone.
func refPlanHierarchyBudget(in ModulePlan, tiers []TierPlan) units.Bytes {
	if len(tiers) == 0 {
		return 0
	}
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
		budget := refPlanModuleBudget(in)
		if idx == len(tiers)-1 {
			budget = lastRungClamp(budget, tiers[idx], in.LargestSaved)
		}
		return budget
	}
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
	in.ReadBandwidth = units.Bandwidth(1 / invRead)
	in.WriteBandwidth = 0
	budget := refPlanModuleBudget(in)
	drainWindow := in.ForwardTime + in.BackwardTime/2
	var writable units.Bytes
	for _, i := range live {
		w := units.Bytes(safetyFactor * float64(tiers[i].WriteBandwidth) * drainWindow.Seconds())
		if c := tiers[i].volumeCap(total); c < w {
			w = c
		}
		writable += w
	}
	if writable < budget {
		budget = writable
	}
	return lastRungClamp(budget, tiers[len(tiers)-1], in.LargestSaved)
}

// randModulePlan draws 0–40 modules, a tenth of them saving nothing and
// a tenth with no backward time.
func randModulePlan(r *rand.Rand) ModulePlan {
	m := r.IntN(41)
	in := ModulePlan{
		SavedBytes:   make([]units.Bytes, m),
		BwdTime:      make([]time.Duration, m),
		ForwardTime:  time.Duration(r.Int64N(int64(2 * time.Second))),
		BackwardTime: time.Duration(r.Int64N(int64(4 * time.Second))),
	}
	for i := range m {
		if r.IntN(10) > 0 {
			in.SavedBytes[i] = units.Bytes(r.Int64N(int64(4 * units.GB)))
			in.LargestSaved = max(in.LargestSaved, in.SavedBytes[i]/units.Bytes(1+r.IntN(4)))
		}
		if r.IntN(10) > 0 {
			in.BwdTime[i] = time.Duration(r.Int64N(int64(300 * time.Millisecond)))
		}
	}
	return in
}

// randTiers draws a 1–3 rung mix: capacities unbounded, zero or up to
// 40 GB, Fractions in [0, 1] with both ends common, reserves from none
// to several windows' worth, and now and then a rung that reads nothing.
func randTiers(r *rand.Rand) []TierPlan {
	tiers := make([]TierPlan, 1+r.IntN(3))
	bw := func() units.Bandwidth {
		if r.IntN(12) == 0 {
			return 0
		}
		return units.Bandwidth(1+r.Float64()*30) * units.GBps
	}
	reserve := func() units.Bytes {
		switch r.IntN(3) {
		case 0:
			return 0
		case 1:
			return units.Bytes(r.Int64N(int64(2 * units.GB)))
		}
		return units.Bytes(r.Int64N(int64(200 * units.GB))) // saturates most windows
	}
	for i := range tiers {
		t := TierPlan{WriteBandwidth: bw(), ReadBandwidth: bw()}
		switch r.IntN(3) {
		case 1:
			t.Capacity = units.Bytes(r.Int64N(int64(40 * units.GB)))
		case 2:
			t.Capacity = units.Bytes(r.Int64N(int64(2 * units.GB)))
		}
		switch r.IntN(4) {
		case 1:
			t.Fraction = 1
		case 2, 3:
			t.Fraction = r.Float64()
		}
		t.WriteReserve, t.ReadReserve = reserve(), reserve()
		tiers[i] = t
	}
	return tiers
}

// TestPlanHierarchyBudgetMatchesReference: on random module plans and
// tier mixes, the one-pass planner plans the reference planner's budget
// to the byte and leaves each of the caller's tiers exactly as derate
// would.
func TestPlanHierarchyBudgetMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(30, 2408))
	var planned, derated int
	for n := range 20000 {
		in := randModulePlan(r)
		orig := randTiers(r)
		want := refPlanHierarchyBudget(in, slices.Clone(orig))
		tiers := slices.Clone(orig)
		if got := PlanHierarchyBudget(in, tiers); got != want {
			t.Fatalf("case %d: budget %v, reference %v (%d modules, tiers %+v)", n, got, want, len(in.SavedBytes), orig)
		} else if got > 0 {
			planned++
		}
		window := in.ForwardTime + in.BackwardTime
		for i, o := range orig {
			if d := o.derate(window); tiers[i] != d {
				t.Fatalf("case %d: rung %d left as %+v, derate gives %+v", n, i, tiers[i], d)
			}
			if tiers[i] != o {
				derated++
			}
		}
	}
	t.Logf("%d nonzero budgets, %d derated rungs", planned, derated)
	if planned < 2000 || derated < 2000 {
		t.Fatalf("only %d nonzero budgets and %d derated rungs in the draw", planned, derated)
	}
}

// TestPlanHierarchyBudgetAllocatesNothing: a two-rung mix with reserves
// plans without allocating.
func TestPlanHierarchyBudgetAllocatesNothing(t *testing.T) {
	gb := units.Bytes(1e9)
	in := ModulePlan{
		SavedBytes:   []units.Bytes{3 * gb, 3 * gb, 3 * gb, 1 * gb},
		BwdTime:      []time.Duration{300 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond, 100 * time.Millisecond},
		ForwardTime:  500 * time.Millisecond,
		BackwardTime: time.Second,
	}
	dram := TierPlan{WriteBandwidth: 25 * units.GBps, ReadBandwidth: 25 * units.GBps, Capacity: 4 * gb, Fraction: 1, WriteReserve: gb, ReadReserve: gb}
	nvme := TierPlan{WriteBandwidth: 20 * units.GBps, ReadBandwidth: 20 * units.GBps, WriteReserve: 2 * gb, ReadReserve: 2 * gb}
	tiers := make([]TierPlan, 2)
	var budget units.Bytes
	allocs := testing.AllocsPerRun(100, func() {
		tiers[0], tiers[1] = dram, nvme
		budget = PlanHierarchyBudget(in, tiers)
	})
	if allocs != 0 {
		t.Errorf("the planner allocates %v times per call, want 0", allocs)
	}
	if budget <= 0 {
		t.Errorf("budget %v, want a planned offload", budget)
	}
}
