package exp

import (
	"testing"

	"ssdtrain/internal/units"
)

// TestSessionPoolStats pins the pool's observable counters: a cold
// Execute is a miss, a warm one is a hit, and releases beyond maxIdle
// evict the oldest arena.
func TestSessionPoolStats(t *testing.T) {
	sp := NewSessionPool(1)
	cfg := smallCfg(NoOffload)
	if _, err := sp.Execute(cfg); err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Evictions != 0 || st.Idle != 1 {
		t.Fatalf("after cold execute: %+v", st)
	}
	if _, err := sp.Execute(cfg); err != nil {
		t.Fatal(err)
	}
	st = sp.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Idle != 1 {
		t.Fatalf("after warm execute: %+v", st)
	}
	// A different shape misses and, with maxIdle 1, its release evicts
	// the first shape's idle arena.
	other := smallCfg(Recompute)
	if _, err := sp.Execute(other); err != nil {
		t.Fatal(err)
	}
	st = sp.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 || st.Idle != 1 {
		t.Fatalf("after cross-shape execute: %+v", st)
	}
	if rate := st.HitRate(); rate <= 0.33 || rate >= 0.34 {
		t.Fatalf("hit rate = %v, want 1/3", rate)
	}
}

// TestNormalizeAndShapeKey pins the exported canonicalization: defaults
// filled, knobs validated, and the shape key zeroing exactly the cheap
// knobs.
func TestNormalizeAndShapeKey(t *testing.T) {
	cfg := smallCfg(HybridOffload)
	cfg.SSDBandwidthShare = 0.25
	cfg.DRAMCapacity = 512 * units.MiB
	n, err := Normalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.Placement != PlacementDRAMFirst || n.Steps != 3 || n.Warmup != 2 {
		t.Fatalf("normalize did not fill defaults: %+v", n)
	}
	key, err := ShapeKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if key != shapeKey(n) {
		t.Fatalf("ShapeKey = %+v, want internal shapeKey of normalized config", key)
	}
	if key.SSDBandwidthShare != 0 || key.DRAMCapacity != 0 || key.Placement != "" {
		t.Fatalf("cheap knobs not zeroed in shape key: %+v", key)
	}

	if _, err := Normalize(RunConfig{Strategy: "warp-drive"}); err == nil {
		t.Fatal("unknown strategy normalized without error")
	}
	bad := smallCfg(SSDTrain)
	bad.SplitRatio = 0.5
	if _, err := ShapeKey(bad); err == nil {
		t.Fatal("dead split ratio accepted")
	}
}

// TestNegativeKnobsRejected is the library-level pin for the hostile
// knobs that once reached the executor: steps -1 with warmup -1 used to
// panic on an empty PerStep, and a lone negative knob silently
// mismeasured.
func TestNegativeKnobsRejected(t *testing.T) {
	base := smallCfg(SSDTrain)
	mutations := map[string]func(*RunConfig){
		"steps":         func(c *RunConfig) { c.Steps = -1 },
		"warmup":        func(c *RunConfig) { c.Warmup = -1 },
		"steps+warmup":  func(c *RunConfig) { c.Steps, c.Warmup = -1, -1 },
		"micro batches": func(c *RunConfig) { c.MicroBatches = -3 },
		"budget":        func(c *RunConfig) { c.Budget = -units.MiB },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := Normalize(cfg); err == nil {
			t.Errorf("%s: negative knob normalized without error", name)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: negative knob ran without error", name)
		}
	}
}
