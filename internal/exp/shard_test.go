package exp

import (
	"testing"

	"ssdtrain/internal/models"
)

func shardModel() models.Config {
	return models.Config{Arch: models.BERT, Hidden: 2048, Layers: 2, Batch: 4,
		HeadDim: 128, SeqLen: 1024, Vocab: 30592, FFNMult: 4, TP: 2, FlashAttention: true}
}

// TestShapeHashCoalescesCheapKnobs pins the routing contract: configs
// that share a compiled plan (differing only in cheap knobs) hash to one
// shard, and configs with different shapes hash apart.
func TestShapeHashCoalescesCheapKnobs(t *testing.T) {
	base := RunConfig{Model: shardModel(), Strategy: SSDTrain}
	h0, err := ShapeHash(base)
	if err != nil {
		t.Fatal(err)
	}
	cheap := base
	cheap.Steps = 7
	cheap.SSDBandwidthShare = 0.5
	cheap.SteadyState = "off"
	if h, err := ShapeHash(cheap); err != nil || h != h0 {
		t.Fatalf("cheap-knob variant hashed to %d (err %v), want shard %d", h, err, h0)
	}
	other := base
	other.Strategy = Recompute
	if h, err := ShapeHash(other); err != nil || h == h0 {
		t.Fatalf("different strategy kept shard %d (err %v)", h, err)
	}
	bigger := base
	bigger.Model.Layers = 4
	if h, err := ShapeHash(bigger); err != nil || h == h0 {
		t.Fatalf("different model kept shard %d (err %v)", h, err)
	}
	if _, err := ShapeHash(RunConfig{Model: shardModel(), Strategy: "bogus"}); err == nil {
		t.Fatal("ShapeHash accepted an invalid strategy")
	}
}

// TestConfigHashSeparatesCheapKnobs pins the stale-cache key: unlike the
// shard key, distinct normalized configs (even cheap-knob variants of one
// shape) must hash apart, while spelled-out defaults coincide with their
// defaulted twin.
func TestConfigHashSeparatesCheapKnobs(t *testing.T) {
	base := RunConfig{Model: shardModel(), Strategy: SSDTrain}
	h0, err := ConfigHash(base)
	if err != nil {
		t.Fatal(err)
	}
	cheap := base
	cheap.Steps = 7
	if h, err := ConfigHash(cheap); err != nil || h == h0 {
		t.Fatalf("cheap-knob variant collided on %d (err %v)", h, err)
	}
	spelled := base
	spelled.Steps = 3 // the withDefaults value
	spelled.Warmup = 2
	spelled.MicroBatches = 1
	spelled.KeepLastModules = 1
	if h, err := ConfigHash(spelled); err != nil || h != h0 {
		t.Fatalf("spelled-out defaults hashed to %d (err %v), want %d", h, err, h0)
	}
	if _, err := ConfigHash(RunConfig{Model: shardModel(), Strategy: "bogus"}); err == nil {
		t.Fatal("ConfigHash accepted an invalid strategy")
	}
}
