package exp

import (
	"reflect"
	"testing"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/models"
)

func smallCfg(strategy Strategy) RunConfig {
	return RunConfig{
		Model:    models.PaperConfig(models.BERT, 2048, 2, 4),
		Strategy: strategy,
	}
}

// TestCompileExecuteMatchesRun asserts the compiled-plan path and the
// Run wrapper produce byte-identical results — including the memory
// report, per-step metrics, counters and planned budget — for every
// strategy. Run is a thin wrapper over Compile+Execute, but the two
// plans here come from different cache entries' lifecycles (fresh
// compile vs cached), so this also pins plan reuse to be side-effect
// free.
func TestCompileExecuteMatchesRun(t *testing.T) {
	for _, strat := range []Strategy{SSDTrain, NoOffload, Recompute, CPUOffload} {
		cfg := smallCfg(strat)
		plan, err := Compile(cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", strat, err)
		}
		a, err := plan.Execute(cfg)
		if err != nil {
			t.Fatalf("%s: execute: %v", strat, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", strat, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Compile+Execute result differs from Run", strat)
		}
	}
}

// seedRun reproduces the seed's single-shot Run path: build the graph
// directly (no template cache, no plan reuse) and measure with fixed
// steps. The compiled path must match it byte-for-byte.
func seedRun(t *testing.T, cfg RunConfig) *RunResult {
	t.Helper()
	cfg = cfg.withDefaults()
	mcfg := cfg.Model
	mcfg.Checkpoint = cfg.Strategy == Recompute
	rt := autograd.NewRuntime(cfg.GPU, autograd.Footprint{})
	graph, err := models.Build(mcfg, rt.Cost)
	if err != nil {
		t.Fatal(err)
	}
	// Compile from a plan built around this uncached graph.
	p := newPlan(shapeKey(cfg), graph)
	res, err := p.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanReuseMatchesFreshBuild asserts that executing through a
// memoized graph template produces results identical to building the
// graph from scratch — the property that makes the template cache and
// weight rebinding invisible to every caller.
func TestPlanReuseMatchesFreshBuild(t *testing.T) {
	for _, strat := range []Strategy{SSDTrain, Recompute} {
		cfg := smallCfg(strat)
		fresh := seedRun(t, cfg)
		cached, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Errorf("%s: cached-template result differs from fresh build", strat)
		}
	}
}

// TestRunDeterministic asserts repeated runs of one config are
// byte-identical — the foundation of the fleet cache's correctness.
func TestRunDeterministic(t *testing.T) {
	cfg := smallCfg(SSDTrain)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated runs differ")
	}
}

// TestExecuteRejectsShapeMismatch pins the guard that keeps a plan from
// silently measuring a different model.
func TestExecuteRejectsShapeMismatch(t *testing.T) {
	plan, err := Compile(smallCfg(SSDTrain))
	if err != nil {
		t.Fatal(err)
	}
	other := smallCfg(SSDTrain)
	other.Model.Hidden = 4096
	if _, err := plan.Execute(other); err == nil {
		t.Fatal("mismatched model accepted")
	}
	// The cheap knobs must be accepted.
	knobs := smallCfg(SSDTrain)
	knobs.Steps = 7
	knobs.Budget = plan.EligibleBytes() / 2
	knobs.SSDBandwidthShare = 0.5
	if _, err := plan.Execute(knobs); err != nil {
		t.Fatalf("cheap-knob variant rejected: %v", err)
	}
}

// TestEligibleBytesZeroBlocks is the regression test for the seed's
// latent out-of-range panic on zero-block graphs: saved[len(saved)-1]
// with len(saved) == 0.
func TestEligibleBytesZeroBlocks(t *testing.T) {
	g := &autograd.Graph{Name: "empty"}
	total, last := eligibleBytes(modulePlan(g).SavedBytes)
	if total != 0 || last != 0 {
		t.Fatalf("eligibleBytes(empty) = %v, %v; want 0, 0", total, last)
	}
}

// TestPlanExposesLastModule pins the keep-last accounting the seed
// computed and discarded: the planner's resident tail is the final
// block's saved bytes.
func TestPlanExposesLastModule(t *testing.T) {
	plan, err := Compile(smallCfg(SSDTrain))
	if err != nil {
		t.Fatal(err)
	}
	if plan.LastModuleBytes() <= 0 {
		t.Fatal("last-module bytes not recorded")
	}
	if plan.LastModuleBytes() >= plan.EligibleBytes() {
		t.Fatal("last module cannot exceed total eligible bytes")
	}
}

// TestPlanCacheShared asserts Run-level sweeps share one compiled plan.
func TestPlanCacheShared(t *testing.T) {
	cfg := smallCfg(SSDTrain)
	p1, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	varied := cfg
	varied.Steps = 9
	varied.SSDBandwidthShare = 0.25
	p2, err := Compile(varied)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cheap-knob variants compiled to distinct plans")
	}
}
