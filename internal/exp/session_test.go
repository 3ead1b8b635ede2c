package exp

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"ssdtrain/internal/core"
	"ssdtrain/internal/units"
)

// runSessionSequence executes every config in order on one reused
// session, comparing each result byte-for-byte against a fresh
// Plan.Execute of the same config, then repeats the sequence in reverse
// on the same session — so every knob transition (and its inverse) runs
// on an arena dirtied by a different knob combination.
func runSessionSequence(t *testing.T, label string, cfgs []RunConfig) {
	t.Helper()
	plan, err := Compile(cfgs[0])
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	sess, err := NewSession(plan)
	if err != nil {
		t.Fatalf("%s: session: %v", label, err)
	}
	check := func(i int, cfg RunConfig) {
		fresh, err := plan.Execute(cfg)
		if err != nil {
			t.Fatalf("%s[%d]: fresh execute: %v", label, i, err)
		}
		got, err := sess.Execute(cfg)
		if err != nil {
			t.Fatalf("%s[%d]: session execute: %v", label, i, err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Errorf("%s[%d]: session result differs from fresh Execute (cfg %+v)", label, i, cfg)
		}
	}
	for i, cfg := range cfgs {
		check(i, cfg)
	}
	for i := len(cfgs) - 1; i >= 0; i-- {
		check(i, cfgs[i])
	}
}

// TestSessionExecuteMatchesFresh is the session-reuse equivalence
// property: for every strategy, placement, bandwidth share, DRAM
// capacity, split ratio, budget override and step-count variation,
// Session.Execute on a recycled arena returns a RunResult byte-identical
// to a single-use Plan.Execute — including per-step metrics, memory
// report timelines, per-tier usage and counters — across back-to-back
// calls with different knobs on one session.
func TestSessionExecuteMatchesFresh(t *testing.T) {
	t.Run("no-offload", func(t *testing.T) {
		base := smallCfg(NoOffload)
		more := base
		more.Steps = 5
		longer := base
		longer.Steps = 8
		runSessionSequence(t, "no-offload", []RunConfig{base, more, longer})
	})

	t.Run("recompute", func(t *testing.T) {
		base := smallCfg(Recompute)
		longer := base
		longer.Steps = 8
		runSessionSequence(t, "recompute", []RunConfig{base, longer})
	})

	t.Run("ssdtrain", func(t *testing.T) {
		base := smallCfg(SSDTrain)
		plan, err := Compile(base)
		if err != nil {
			t.Fatal(err)
		}
		half := base
		half.SSDBandwidthShare = 0.5
		quarter := base
		quarter.SSDBandwidthShare = 0.25
		budget := base
		budget.Budget = plan.EligibleBytes() / 2
		steps := base
		steps.Steps = 6
		runSessionSequence(t, "ssdtrain", []RunConfig{base, half, quarter, budget, steps})
	})

	t.Run("cpu-offload", func(t *testing.T) {
		base := smallCfg(CPUOffload)
		ref, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		bounded := base
		bounded.DRAMCapacity = ref.SSDPeak
		runSessionSequence(t, "cpu-offload", []RunConfig{base, bounded})

		// A pinned budget the pool cannot hold overflows on both paths
		// identically (the planner clamps its own budgets to fit), and the
		// session stays usable afterwards (a failed run may not leak state
		// into the next Execute).
		tight := base
		tight.DRAMCapacity = ref.SSDPeak / 2
		tight.Budget = ref.PlannedBudget
		plan, err := Compile(base)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(plan)
		if err != nil {
			t.Fatal(err)
		}
		freshRes, freshErr := plan.Execute(tight)
		gotRes, gotErr := sess.Execute(tight)
		if freshErr == nil || gotErr == nil {
			t.Fatalf("overflow not reported: fresh=%v session=%v", freshErr, gotErr)
		}
		if freshErr.Error() != gotErr.Error() {
			t.Errorf("overflow errors differ:\nfresh:   %v\nsession: %v", freshErr, gotErr)
		}
		if freshRes != nil || gotRes != nil {
			t.Error("failed run returned a result")
		}
		after, err := sess.Execute(bounded)
		if err != nil {
			t.Fatalf("session unusable after failed run: %v", err)
		}
		want, err := plan.Execute(bounded)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, after) {
			t.Error("post-failure session result differs from fresh Execute")
		}
	})

	t.Run("hybrid", func(t *testing.T) {
		cpu := smallCfg(CPUOffload)
		ref, err := Run(cpu)
		if err != nil {
			t.Fatal(err)
		}
		peak := ref.SSDPeak
		base := smallCfg(HybridOffload)
		base.SSDBandwidthShare = 0.25

		nvmeOnly := base // dram-first with zero grant: degenerate stack
		halfCap := base
		halfCap.DRAMCapacity = peak / 2
		fullCap := base
		fullCap.DRAMCapacity = peak
		ssdOnly := base
		ssdOnly.Placement = PlacementSSDOnly
		ssdOnlyCap := ssdOnly
		ssdOnlyCap.DRAMCapacity = peak / 2
		split := base
		split.Placement = PlacementSplit
		split.DRAMCapacity = peak
		split.SplitRatio = 0.5
		splitZero := split
		splitZero.SplitRatio = 0
		runSessionSequence(t, "hybrid",
			[]RunConfig{nvmeOnly, halfCap, fullCap, ssdOnly, ssdOnlyCap, split, splitZero})
	})

	t.Run("materialized-verify", func(t *testing.T) {
		// Byte-backed payloads with checksum verification: revived
		// storages and recycled reload buffers must round-trip exactly.
		// The config is deliberately tiny (batch 1, 2 steps) — every saved
		// tensor is filled and CRC-checked, which dominates wall-clock,
		// especially under -race.
		base := smallCfg(SSDTrain)
		base.Model.Batch = 1
		base.Steps = 2
		base.Warmup = 1
		base.Materialize = true
		base.Verify = true
		share := base
		share.SSDBandwidthShare = 0.5
		// The repeated base config exercises a revived arena on identical
		// knobs; runSessionSequence's reverse pass covers the transitions.
		runSessionSequence(t, "materialized", []RunConfig{base, share})
	})
}

// TestSessionRejectsShapeMismatch pins the session-level guard.
func TestSessionRejectsShapeMismatch(t *testing.T) {
	plan, err := Compile(smallCfg(SSDTrain))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(plan)
	if err != nil {
		t.Fatal(err)
	}
	other := smallCfg(SSDTrain)
	other.Model.Hidden = 4096
	if _, err := sess.Execute(other); err == nil {
		t.Fatal("mismatched model accepted")
	}
	// The session stays usable after a rejected config.
	if _, err := sess.Execute(smallCfg(SSDTrain)); err != nil {
		t.Fatalf("session unusable after rejection: %v", err)
	}
}

// TestSessionPoolMatchesRun asserts pooled execution returns the same
// results as Run and actually recycles arenas.
func TestSessionPoolMatchesRun(t *testing.T) {
	sp := NewSessionPool(0)
	cfgs := []RunConfig{smallCfg(SSDTrain), smallCfg(NoOffload), smallCfg(SSDTrain)}
	for i, cfg := range cfgs {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("pooled result %d differs from Run", i)
		}
	}
	if sp.Idle() == 0 {
		t.Error("pool retained no sessions")
	}
}

// TestSessionPoolEvictsOldest asserts a full pool evicts its oldest idle
// arena (so stale plans age out) instead of refusing new releases.
func TestSessionPoolEvictsOldest(t *testing.T) {
	sp := NewSessionPool(2)
	planA, err := Compile(smallCfg(SSDTrain))
	if err != nil {
		t.Fatal(err)
	}
	planB, err := Compile(smallCfg(NoOffload))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := NewSession(planA)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewSession(planA)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewSession(planB)
	if err != nil {
		t.Fatal(err)
	}
	sp.release(planA, a1)
	sp.release(planA, a2)
	sp.release(planB, b1) // full: evicts a1 (oldest)
	if got := sp.Idle(); got != 2 {
		t.Fatalf("idle = %d, want 2", got)
	}
	got, err := sp.acquire(planA)
	if err != nil {
		t.Fatal(err)
	}
	if got != a2 {
		t.Error("expected the younger planA session to survive eviction")
	}
	if s, err := sp.acquire(planB); err != nil || s != b1 {
		t.Errorf("planB session lost: %v %v", s, err)
	}
	// planA's remaining entry was consumed; its map key must be gone.
	sp.mu.Lock()
	if len(sp.free) != 0 || len(sp.fifo) != 0 {
		t.Errorf("pool not drained: %d keys, %d fifo entries", len(sp.free), len(sp.fifo))
	}
	sp.mu.Unlock()
}

// TestMemoBudgetSingleflight asserts concurrent uncached budget requests
// for one key are coalesced into a single Fig 3 planner execution (run
// under -race in CI, this also proves the memo path is data-race free).
// The plan is built by compile, bypassing the shared plan cache, so every
// run of the test starts from an empty memo.
func TestMemoBudgetSingleflight(t *testing.T) {
	plan, err := compile(shapeKey(smallCfg(SSDTrain).withDefaults()))
	if err != nil {
		t.Fatal(err)
	}
	key := budgetKey{share: 0.5}
	tiers := []core.TierPlan{{WriteBandwidth: 10 * units.GBps, ReadBandwidth: 10 * units.GBps}}
	const workers = 8
	results := make([]units.Bytes, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = plan.plannedBudget(key, tiers)
		}(i)
	}
	close(start)
	wg.Wait()
	if got := plan.BudgetComputes(); got != 1 {
		t.Errorf("planner ran %d times for one key, want 1", got)
	}
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Errorf("worker %d got budget %v, worker 0 got %v", i, results[i], results[0])
		}
	}
}

// TestBudgetMemoBounded: a plan asked about more distinct budget keys
// than its memo holds keeps at most budgetMemoSize of them, and every
// answer, first asked or recomputed after eviction, equals a fresh
// planner run.
func TestBudgetMemoBounded(t *testing.T) {
	cfg := smallCfg(SSDTrain)
	cfg.Model.Layers = 12 // enough modules for many distinct budgets
	plan, err := compile(shapeKey(cfg.withDefaults()))
	if err != nil {
		t.Fatal(err)
	}
	mp := core.ModulePlan{
		SavedBytes:   plan.saved,
		BwdTime:      plan.bwd,
		ForwardTime:  plan.fwdTime,
		BackwardTime: plan.bwdTime,
	}
	// Key i plans against a tier of i+1 times 100 MB/s, so the keys span
	// many budgets and a wrong memo entry would show.
	budgets := make(map[units.Bytes]bool)
	ask := func(i int) {
		t.Helper()
		bw := units.Bandwidth(i+1) * 100 * units.MBps
		tiers := []core.TierPlan{{WriteBandwidth: bw, ReadBandwidth: bw}}
		got := plan.plannedBudget(budgetKey{share: float64(i+1) / 1000}, tiers)
		if want := core.PlanHierarchyBudget(mp, tiers); got != want {
			t.Fatalf("key %d: memoized budget %v, fresh planner %v", i, got, want)
		}
		plan.mu.Lock()
		n := len(plan.budgetByKey)
		plan.mu.Unlock()
		if n > budgetMemoSize {
			t.Fatalf("memo holds %d keys, cap %d", n, budgetMemoSize)
		}
		budgets[got] = true
	}
	const keys = 3 * budgetMemoSize
	for i := range keys {
		ask(i)
	}
	if got := plan.BudgetComputes(); got != keys {
		t.Fatalf("planner ran %d times for %d distinct keys", got, keys)
	}
	if len(budgets) < 10 {
		t.Fatalf("keys span only %d budgets; the check cannot tell entries apart", len(budgets))
	}
	// The most recent key is resident; the first was forgotten and reruns.
	ask(keys - 1)
	if got := plan.BudgetComputes(); got != keys {
		t.Errorf("resident key recomputed: %d planner runs", got)
	}
	ask(0)
	if got := plan.BudgetComputes(); got != keys+1 {
		t.Errorf("forgotten key: %d planner runs, want %d", got, keys+1)
	}
}

// TestPlanHoldsSharedTemplate: plans of equal model configs hold the one
// shared graph template, not private clones, and a session executes a
// clone of it.
func TestPlanHoldsSharedTemplate(t *testing.T) {
	key := shapeKey(smallCfg(SSDTrain).withDefaults())
	a, err := compile(key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compile(key)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.tmpl != b.tmpl {
		t.Fatal("two compiles of one shape hold different graph templates")
	}
	sess, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	if sess.graph == a.tmpl {
		t.Error("session executes the shared template instead of a clone")
	}
}

// TestSessionPoolForgetsPlans asserts the pool keeps no plan reachable
// once its arenas have left: one evicted by a full pool, one acquired and
// never released. Each plan is compiled outside the shared plan cache, so
// the pool's FIFO is the only place that could still hold it.
func TestSessionPoolForgetsPlans(t *testing.T) {
	key := shapeKey(smallCfg(NoOffload).withDefaults())
	plan := func() *Plan {
		p, err := compile(key)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	idle := func(sp *SessionPool, p *Plan) {
		s, err := sp.acquire(p)
		if err != nil {
			t.Fatal(err)
		}
		sp.release(p, s)
	}
	for _, tc := range []struct {
		name string
		run  func(sp *SessionPool) weak.Pointer[Plan]
	}{
		{"evicted", func(sp *SessionPool) weak.Pointer[Plan] {
			p := plan()
			idle(sp, p)
			for i := 0; i < 3; i++ {
				idle(sp, plan())
			}
			return weak.Make(p)
		}},
		{"acquired", func(sp *SessionPool) weak.Pointer[Plan] {
			idle(sp, plan())
			p := plan()
			idle(sp, p)
			if _, err := sp.acquire(p); err != nil {
				t.Fatal(err)
			}
			return weak.Make(p)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := NewSessionPool(3)
			w := tc.run(sp)
			runtime.GC()
			runtime.GC()
			if w.Value() != nil {
				t.Error("a plan whose arenas left the pool is still reachable")
			}
			runtime.KeepAlive(sp)
		})
	}
}

// TestSessionPoolReuseAllocs: popping a plan's one idle arena and
// releasing it again, the common pooled run, allocates nothing. The
// emptied free list's array waits unkeyed for the release instead of
// being dropped with the plan's entry.
func TestSessionPoolReuseAllocs(t *testing.T) {
	plan, err := Compile(smallCfg(NoOffload))
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSessionPool(2)
	reuse := func() {
		s, err := sp.acquire(plan)
		if err != nil {
			t.Fatal(err)
		}
		sp.release(plan, s)
	}
	reuse()
	if n := testing.AllocsPerRun(10, reuse); n != 0 {
		t.Errorf("a pooled acquire and release allocate %v objects", n)
	}
}
