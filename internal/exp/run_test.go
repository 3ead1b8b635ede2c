package exp

import (
	"errors"
	"testing"

	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// smallConfig is a fast geometry for harness tests.
func smallConfig(arch models.Arch) models.Config {
	return models.Config{
		Arch:           arch,
		Hidden:         2048,
		Layers:         3,
		HeadDim:        128,
		SeqLen:         512,
		Batch:          4,
		Vocab:          8192,
		FFNMult:        4,
		TP:             2,
		FlashAttention: true,
		DType:          0, // FP16
	}
}

func TestRunSmokeAllStrategies(t *testing.T) {
	for _, arch := range []models.Arch{models.GPT, models.BERT, models.T5} {
		for _, strat := range []Strategy{NoOffload, SSDTrain, Recompute, CPUOffload} {
			t.Run(string(arch)+"/"+string(strat), func(t *testing.T) {
				res, err := Run(RunConfig{Model: smallConfig(arch), Strategy: strat})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.StepTime() <= 0 {
					t.Fatalf("non-positive step time %v", res.StepTime())
				}
				if res.Measured.ActPeak <= 0 {
					t.Fatalf("non-positive activation peak")
				}
				if res.Measured.IO.Leaked != 0 {
					t.Fatalf("cache leaked %d records", res.Measured.IO.Leaked)
				}
				t.Logf("%s/%s: step=%v actPeak=%v stall=%v offloaded=%v forwarded=%v",
					arch, strat, res.StepTime(), res.Measured.ActPeak,
					res.Measured.Stats.ComputeStall, res.Measured.IO.Offloaded, res.Measured.IO.Forwarded)
			})
		}
	}
}

func TestSSDTrainReducesPeakKeepsTime(t *testing.T) {
	base, err := Run(RunConfig{Model: smallConfig(models.BERT), Strategy: NoOffload})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(RunConfig{Model: smallConfig(models.BERT), Strategy: SSDTrain})
	if err != nil {
		t.Fatal(err)
	}
	if off.Measured.ActPeak >= base.Measured.ActPeak {
		t.Errorf("SSDTrain activation peak %v not below baseline %v", off.Measured.ActPeak, base.Measured.ActPeak)
	}
	ratio := float64(off.StepTime()) / float64(base.StepTime())
	if ratio > 1.05 {
		t.Errorf("SSDTrain step time ratio %.3f exceeds 1.05 (%v vs %v)", ratio, off.StepTime(), base.StepTime())
	}
	t.Logf("peak: %v -> %v (%.0f%%), step: %v -> %v (ratio %.3f)",
		base.Measured.ActPeak, off.Measured.ActPeak,
		100*(1-float64(off.Measured.ActPeak)/float64(base.Measured.ActPeak)),
		base.StepTime(), off.StepTime(), ratio)
}

// TestOffloadAddsExactlyItsStall pins the modeled step's stall identity:
// offloading activations lengthens a step by exactly the time compute
// waited on reloads, StepTime(offload) − StepTime(no-offload) ==
// ComputeStall, on the Fig 6 architectures over a grid of geometries, for
// every activation-offload strategy (hybrid with a 1 GiB DRAM grant,
// cpu-offload with its unbounded profiling pool).
func TestOffloadAddsExactlyItsStall(t *testing.T) {
	offload := []RunConfig{
		{Strategy: SSDTrain},
		{Strategy: CPUOffload},
		{Strategy: HybridOffload, DRAMCapacity: units.GiB},
	}
	for _, arch := range []models.Arch{models.GPT, models.BERT, models.T5} {
		for _, hidden := range []int{4096, 8192, 12288} {
			for _, layers := range []int{2, 3, 4} {
				m := models.PaperConfig(arch, hidden, layers, 16)
				base, err := Run(RunConfig{Model: m, Strategy: NoOffload})
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range offload {
					cfg.Model = m
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if d, stall := res.StepTime()-base.StepTime(), res.Measured.Stats.ComputeStall; d != stall {
						t.Errorf("%v %s: step %v − no-offload %v = %v, stall %v", m, cfg.Strategy, res.StepTime(), base.StepTime(), d, stall)
					}
				}
			}
		}
	}
}

// TestWithDefaultsIdempotent pins the defaulting to be a fixed point:
// Sweep dedups on the defaulted config and Run defaults it again, so any
// non-idempotent mapping silently changes swept configs. The seed's
// KeepLastModules path did exactly that (-1 → 0 → 1), re-enabling the
// keep-last heuristic on ablation configs routed through Sweep.
func TestWithDefaultsIdempotent(t *testing.T) {
	cfgs := []RunConfig{
		{Model: smallConfig(models.BERT), Strategy: SSDTrain, KeepLastModules: -1, PrefetchAhead: -1},
		{Model: smallConfig(models.GPT), Strategy: HybridOffload, DRAMCapacity: 1 << 30},
		{Model: smallConfig(models.T5), Strategy: CPUOffload},
	}
	for _, cfg := range cfgs {
		once := cfg.withDefaults()
		if twice := once.withDefaults(); twice != once {
			t.Errorf("withDefaults not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
		}
	}
	// The behavioural consequence: a keep-nothing ablation measured via
	// Sweep matches the same config measured via Run.
	abl := RunConfig{Model: smallConfig(models.BERT), Strategy: SSDTrain, KeepLastModules: -1}
	direct, err := Run(abl)
	if err != nil {
		t.Fatal(err)
	}
	swept, err := Sweep(0, []Spec{{Model: abl.Model, Offload: OffloadSpec{Strategy: SSDTrain, KeepLastModules: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Measured != swept[0].Measured {
		t.Errorf("swept ablation diverged from direct run:\n%+v\nvs\n%+v", swept[0].Measured, direct.Measured)
	}
}

func TestOffloadRoundTripVerified(t *testing.T) {
	cfg := smallConfig(models.GPT)
	cfg.Hidden = 1024
	cfg.SeqLen = 256
	cfg.Batch = 2
	cfg.Vocab = 4096
	res, err := Run(RunConfig{
		Model: cfg, Strategy: SSDTrain,
		Materialize: true, Verify: true,
		Steps: 2, Warmup: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured.IO.Reloaded == 0 {
		t.Fatalf("expected reloads with verification, got none (offloaded=%v)", res.Measured.IO.Offloaded)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(RunConfig{Model: smallConfig(models.T5), Strategy: SSDTrain})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunConfig{Model: smallConfig(models.T5), Strategy: SSDTrain})
	if err != nil {
		t.Fatal(err)
	}
	if a.StepTime() != b.StepTime() || a.Measured.ActPeak != b.Measured.ActPeak ||
		a.Measured.IO != b.Measured.IO {
		t.Fatalf("runs diverged: %+v vs %+v", a.Measured, b.Measured)
	}
}

func TestRecomputeLowestMemorySlowest(t *testing.T) {
	cfg := smallConfig(models.BERT)
	keep, _ := Run(RunConfig{Model: cfg, Strategy: NoOffload})
	rec, _ := Run(RunConfig{Model: cfg, Strategy: Recompute})
	off, _ := Run(RunConfig{Model: cfg, Strategy: SSDTrain})
	if rec.Measured.ActPeak >= keep.Measured.ActPeak {
		t.Errorf("recompute peak %v not below keep %v", rec.Measured.ActPeak, keep.Measured.ActPeak)
	}
	if rec.StepTime() <= keep.StepTime() {
		t.Errorf("recompute step %v not slower than keep %v", rec.StepTime(), keep.StepTime())
	}
	// The paper's headline: offloading achieves keep-level throughput with
	// recompute-level (or better) memory.
	if off.Throughput() < keep.Throughput()*0.97 {
		t.Errorf("ssdtrain throughput %v below 97%% of keep %v", off.Throughput(), keep.Throughput())
	}
	_ = units.Bytes(0)
}

// TestUnrepresentableConfigsRejected: configs the simulator cannot
// represent are typed errors from Run, not panics or wrapped answers. A
// 512-layer BERT at the service caps panicked the allocator, and a share
// of 1e-12 wrapped every transfer time to 1 ns.
func TestUnrepresentableConfigsRejected(t *testing.T) {
	huge := models.PaperConfig(models.BERT, 1<<18, 512, 1<<16)
	huge.SeqLen = 1 << 20
	_, err := Run(RunConfig{Model: huge, Strategy: SSDTrain})
	var tooLarge *models.TooLargeError
	if !errors.As(err, &tooLarge) {
		t.Errorf("huge model: got %v, want *models.TooLargeError", err)
	}
	thin := smallCfg(SSDTrain)
	thin.SSDBandwidthShare = 1e-12
	_, err = Run(thin)
	var share *ShareError
	if !errors.As(err, &share) {
		t.Errorf("share 1e-12: got %v, want *ShareError", err)
	}
	thin.SSDBandwidthShare = MinSSDBandwidthShare
	if _, err := Run(thin); err != nil {
		t.Errorf("share at the floor: %v", err)
	}
}
