package exp

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/units"
)

// specVariants enumerates every strategy × placement × optimizer
// schedule combination that Normalize accepts, each with a sprinkling of
// ablation/measurement knobs so the variants cover every field group
// rather than just the zero value.
func specVariants() []Spec {
	model := smallCfg(NoOffload).Model
	var out []Spec
	for _, strat := range []Strategy{NoOffload, Recompute, SSDTrain, CPUOffload} {
		out = append(out, Spec{Model: model, Offload: OffloadSpec{Strategy: strat}})
	}
	for _, place := range []Placement{"", PlacementDRAMFirst, PlacementSSDOnly, PlacementSplit} {
		s := Spec{Model: model, Offload: OffloadSpec{Strategy: HybridOffload, Placement: place, DRAMCapacity: 256 << 20}}
		if place == PlacementSplit {
			s.Offload.SplitRatio = 0.5
		}
		out = append(out, s)
	}
	for _, kind := range []string{"", "adam", "sgd"} {
		for _, sched := range []string{"", ScheduleSync, ScheduleOverlap} {
			out = append(out, Spec{
				Model:     model,
				Offload:   OffloadSpec{DRAMCapacity: 128 << 20},
				Optimizer: OptimizerSpec{Kind: kind, Offload: true, Schedule: sched},
			})
		}
	}
	// One deliberately knob-heavy spec so fields outside the strategy
	// groups (ablations, faults, steady-state, contention) are covered.
	out = append(out, Spec{
		Model: model,
		Offload: OffloadSpec{
			Strategy:        SSDTrain,
			PrefetchAhead:   2,
			KeepLastModules: -1,
			DisableGDS:      true,
			NoForwarding:    true,
		},
		Run: RunSpec{Steps: 7, Warmup: 1, MicroBatches: 3, SteadyState: "off"},
		Inject: InjectSpec{
			Faults:            faults.Spec{DegradeAt: time.Millisecond, DegradeFactor: 0.5},
			Trace:             true,
			SSDBandwidthShare: 0.5,
		},
	})
	return out
}

// setLeaves sets every scalar field under v, a struct, to a value
// derived from n: n itself for numbers, a string of n x's, and for bools
// n == 1. Values for different n differ, and for n = 1 none is zero.
func setLeaves(v reflect.Value, n int) {
	for i := range v.NumField() {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			setLeaves(f, n)
		case reflect.Bool:
			f.SetBool(n == 1)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Float32, reflect.Float64:
			f.SetFloat(float64(n))
		case reflect.String:
			f.SetString(strings.Repeat("x", n))
		default:
			panic("setLeaves: unhandled kind " + f.Kind().String())
		}
	}
}

// leafPaths lists the index path of every scalar field under t, a
// struct type, with its dotted name.
func leafPaths(t reflect.Type, prefix []int, name string) (paths [][]int, names []string) {
	for i := range t.NumField() {
		f := t.Field(i)
		index := append(append([]int(nil), prefix...), i)
		if f.Type.Kind() == reflect.Struct {
			p, n := leafPaths(f.Type, index, name+f.Name+".")
			paths, names = append(paths, p...), append(names, n...)
			continue
		}
		paths, names = append(paths, index), append(names, name+f.Name)
	}
	return paths, names
}

// TestSpecRoundTrip pins Spec.RunConfig as a complete flattening: a Spec
// with every field set flattens to a RunConfig with every field set, so
// the Spec can express any RunConfig, and changing any one Spec field
// changes the result, so no Spec field is dropped. Every strategy ×
// placement × schedule variant then flattens, and its config normalizes
// idempotently and keeps its hashes through Normalize.
func TestSpecRoundTrip(t *testing.T) {
	var full Spec
	setLeaves(reflect.ValueOf(&full).Elem(), 1)
	full.Offload.Strategy = OptimOffload // Optimizer.Offload is set
	cfg, err := full.RunConfig()
	if err != nil {
		t.Fatalf("flatten the full spec: %v", err)
	}
	cfgPaths, cfgNames := leafPaths(reflect.TypeFor[RunConfig](), nil, "")
	for i, path := range cfgPaths {
		if reflect.ValueOf(cfg).FieldByIndex(path).IsZero() {
			t.Errorf("no Spec field sets RunConfig.%s", cfgNames[i])
		}
	}
	specPaths, specNames := leafPaths(reflect.TypeFor[Spec](), nil, "")
	for i, path := range specPaths {
		moved := full
		f := reflect.ValueOf(&moved).Elem().FieldByIndex(path)
		var two Spec
		setLeaves(reflect.ValueOf(&two).Elem(), 2)
		f.Set(reflect.ValueOf(two).FieldByIndex(path))
		if got, err := moved.RunConfig(); err == nil && got == cfg {
			t.Errorf("Spec.%s does not reach the RunConfig", specNames[i])
		}
	}

	for _, spec := range specVariants() {
		cfg, err := spec.RunConfig()
		if err != nil {
			t.Fatalf("flatten %+v: %v", spec, err)
		}
		name := string(cfg.Strategy) + "/" + string(cfg.Placement) + "/" + cfg.Schedule
		t.Run(name, func(t *testing.T) {
			norm, err := Normalize(cfg)
			if err != nil {
				t.Fatalf("normalize: %v", err)
			}
			if again, err := Normalize(norm); err != nil || again != norm {
				t.Errorf("normalize not idempotent: %+v, %v", again, err)
			}
			for _, hash := range []func(RunConfig) (uint64, error){ShapeHash, ConfigHash} {
				before, err := hash(cfg)
				if err != nil {
					t.Fatalf("hash: %v", err)
				}
				if after, err := hash(norm); err != nil || after != before {
					t.Errorf("hash moved through Normalize: %#x, then %#x (%v)", before, after, err)
				}
			}
		})
	}
}

// TestSpecDefaultsIdempotent extends the run_test idempotence pin to
// every spec variant, including the canonicalized spellings the new
// strategy introduced (OptimKind/Schedule defaults, SteadyState "on",
// KeepLastModules < 0).
func TestSpecDefaultsIdempotent(t *testing.T) {
	var cfgs []RunConfig
	for _, spec := range specVariants() {
		cfg, err := spec.RunConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	on := smallCfg(SSDTrain)
	on.SteadyState = "on"
	keepNone := smallCfg(SSDTrain)
	keepNone.KeepLastModules = -3
	cfgs = append(cfgs, on, keepNone)
	for _, cfg := range cfgs {
		once := cfg.withDefaults()
		twice := once.withDefaults()
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("withDefaults not idempotent for %+v:\n once  %+v\n twice %+v", cfg, once, twice)
		}
	}
}

// TestSpecOptimizerConflicts pins the only way a Spec can fail to
// flatten: an optimizer group that contradicts the activation strategy.
func TestSpecOptimizerConflicts(t *testing.T) {
	conflicting := Spec{Model: smallCfg(SSDTrain).Model, Offload: OffloadSpec{Strategy: SSDTrain}}
	conflicting.Optimizer.Offload = true
	if _, err := conflicting.RunConfig(); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("optimizer.offload against strategy %q: got err %v, want conflict", SSDTrain, err)
	}

	cleared := Spec{Model: smallCfg(OptimOffload).Model, Offload: OffloadSpec{Strategy: OptimOffload}}
	if _, err := cleared.RunConfig(); err == nil || !strings.Contains(err.Error(), "requires optimizer.offload") {
		t.Errorf("strategy optim-offload without optimizer.offload: got err %v, want requires", err)
	}

	// The grouped spelling alone selects the strategy.
	grouped := Spec{Model: smallCfg(NoOffload).Model, Optimizer: OptimizerSpec{Offload: true, Schedule: ScheduleOverlap}}
	grouped.Offload.DRAMCapacity = 64 << 20
	cfg, err := grouped.RunConfig()
	if err != nil {
		t.Fatalf("grouped optimizer spelling: %v", err)
	}
	if cfg.Strategy != OptimOffload || cfg.Schedule != ScheduleOverlap {
		t.Errorf("grouped spelling flattened to strategy %q schedule %q", cfg.Strategy, cfg.Schedule)
	}
	if cfg.DRAMCapacity != units.Bytes(64<<20) {
		t.Errorf("grouped spelling lost DRAM capacity: %v", cfg.DRAMCapacity)
	}
}
