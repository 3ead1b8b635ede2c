package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// decodePlan decodes a /v1/plan body through the handlers' decoder.
func decodePlan(body []byte) (PlanRequest, error) {
	var req PlanRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	err := decodePlanBody(httptest.NewRecorder(), r, &req)
	return req, err
}

// specBodies pairs /v1/plan bodies with the exp.Spec each one asks.
// Between them the bodies set every wire field.
func specBodies() []struct {
	name, body string
	spec       exp.Spec
} {
	bert := models.PaperConfig(models.BERT, 2048, 2, 4)
	tuned := bert
	tuned.SeqLen, tuned.HeadDim, tuned.TP = 512, 64, 1
	return []struct {
		name, body string
		spec       exp.Spec
	}{
		{
			"ssdtrain tuned",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4,"seq_len":512,"head_dim":64,"tp":1},` +
				`"offload":{"strategy":"ssdtrain","budget_bytes":268435456,"keep_last_modules":2,"prefetch_ahead":1,"disable_gds":true},` +
				`"run":{"steps":3,"warmup":1,"micro_batches":2},"inject":{"ssd_bandwidth_share":0.5}}}`,
			exp.Spec{
				Model:   tuned,
				Offload: exp.OffloadSpec{Strategy: exp.SSDTrain, Budget: 256 * units.MiB, KeepLastModules: 2, PrefetchAhead: 1, DisableGDS: true},
				Run:     exp.RunSpec{Steps: 3, Warmup: 1, MicroBatches: 2},
				Inject:  exp.InjectSpec{SSDBandwidthShare: 0.5},
			},
		},
		{
			"no-offload",
			`{"spec":{"model":{"arch":"gpt","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"no-offload"},"run":{"steps":4}}}`,
			exp.Spec{Model: models.PaperConfig(models.GPT, 2048, 2, 4), Offload: exp.OffloadSpec{Strategy: exp.NoOffload}, Run: exp.RunSpec{Steps: 4}},
		},
		{
			"recompute",
			`{"spec":{"model":{"arch":"t5","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"recompute","keep_last_modules":-1}}}`,
			exp.Spec{Model: models.PaperConfig(models.T5, 2048, 2, 4), Offload: exp.OffloadSpec{Strategy: exp.Recompute, KeepLastModules: -1}},
		},
		{
			"cpu-offload",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"cpu-offload","dram_capacity_bytes":2147483648}}}`,
			exp.Spec{Model: bert, Offload: exp.OffloadSpec{Strategy: exp.CPUOffload, DRAMCapacity: 2 * units.GiB}},
		},
		{
			"hybrid ssd-only",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"hybrid","placement":"ssd-only","dram_capacity_bytes":268435456}}}`,
			exp.Spec{Model: bert, Offload: exp.OffloadSpec{Strategy: exp.HybridOffload, Placement: exp.PlacementSSDOnly, DRAMCapacity: 256 * units.MiB}},
		},
		{
			"hybrid dram-first",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"hybrid","placement":"dram-first","dram_capacity_bytes":1073741824}}}`,
			exp.Spec{Model: bert, Offload: exp.OffloadSpec{Strategy: exp.HybridOffload, Placement: exp.PlacementDRAMFirst, DRAMCapacity: units.GiB}},
		},
		{
			"hybrid split",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"hybrid","placement":"split","split_ratio":0.25,"dram_capacity_bytes":1073741824}}}`,
			exp.Spec{Model: bert, Offload: exp.OffloadSpec{Strategy: exp.HybridOffload, Placement: exp.PlacementSplit, SplitRatio: 0.25, DRAMCapacity: units.GiB}},
		},
		{
			"optim-offload overlap",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"dram_capacity_bytes":1073741824},"optimizer":{"offload":true,"schedule":"overlap"}}}`,
			exp.Spec{Model: bert, Offload: exp.OffloadSpec{DRAMCapacity: units.GiB}, Optimizer: exp.OptimizerSpec{Offload: true, Schedule: exp.ScheduleOverlap}},
		},
		{
			"optim-offload sgd",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"optimizer":{"kind":"sgd","offload":true,"schedule":"sync"},"inject":{"ssd_bandwidth_share":0.25}}}`,
			exp.Spec{Model: bert, Optimizer: exp.OptimizerSpec{Kind: "sgd", Offload: true, Schedule: exp.ScheduleSync}, Inject: exp.InjectSpec{SSDBandwidthShare: 0.25}},
		},
		{
			"timed death and rebuild",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"run":{"steps":12},` +
				`"inject":{"faults":{"device_death_at_us":93364,"device":1,"rebuild_for_us":5000,"rebuild_steal":0.5}}}}`,
			exp.Spec{
				Model:   bert,
				Offload: exp.OffloadSpec{Strategy: exp.SSDTrain},
				Run:     exp.RunSpec{Steps: 12},
				Inject: exp.InjectSpec{Faults: faults.Spec{
					DeviceDeathAt: 93364 * time.Microsecond, Device: 1, RebuildFor: 5 * time.Millisecond, RebuildSteal: 0.5,
				}},
			},
		},
		{
			"wear death and degrade",
			`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"hybrid","dram_capacity_bytes":268435456},` +
				`"inject":{"faults":{"wear_threshold":0.5,"device":-1,"degrade_at_us":1000,"degrade_factor":0.5,"degrade_for_us":2000}}}}`,
			exp.Spec{
				Model:   bert,
				Offload: exp.OffloadSpec{Strategy: exp.HybridOffload, DRAMCapacity: 256 * units.MiB},
				Inject: exp.InjectSpec{Faults: faults.Spec{
					WearThreshold: 0.5, Device: -1, DegradeAt: time.Millisecond, DegradeFactor: 0.5, DegradeFor: 2 * time.Millisecond,
				}},
			},
		},
	}
}

// wirePaths adds the dotted JSON name of every leaf field of t.
func wirePaths(t reflect.Type, prefix string, out map[string]bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			wirePaths(ft, prefix+name+".", out)
			continue
		}
		out[prefix+name] = true
	}
}

// bodyPaths adds the dotted key of every leaf value a decoded JSON body
// sets.
func bodyPaths(v any, prefix string, out map[string]bool) {
	m, ok := v.(map[string]any)
	if !ok {
		out[strings.TrimSuffix(prefix, ".")] = true
		return
	}
	for k, sub := range m {
		bodyPaths(sub, prefix+k+".", out)
	}
}

// TestSpecBodiesResolveLikeSpec checks the wire mapping field for field:
// each body resolves to the normalized config of the exp.Spec it asks.
func TestSpecBodiesResolveLikeSpec(t *testing.T) {
	for _, p := range specBodies() {
		req, err := decodePlan([]byte(p.body))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got, err := req.RunConfig()
		if err != nil {
			t.Fatalf("%s: RunConfig: %v", p.name, err)
		}
		flat, err := p.spec.RunConfig()
		if err != nil {
			t.Fatalf("%s: flatten the spec: %v", p.name, err)
		}
		want, err := exp.Normalize(flat)
		if err != nil {
			t.Fatalf("%s: normalize the spec: %v", p.name, err)
		}
		if got != want {
			t.Errorf("%s: the body resolves to\n%+v\nthe spec to\n%+v", p.name, got, want)
		}
	}
}

// TestSpecBodiesCoverWire keeps specBodies complete: a wire field
// no body sets fails here until a body sets it.
func TestSpecBodiesCoverWire(t *testing.T) {
	set := map[string]bool{}
	for _, p := range specBodies() {
		var v any
		if err := json.Unmarshal([]byte(p.body), &v); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		bodyPaths(v, "", set)
	}
	fields := map[string]bool{}
	wirePaths(reflect.TypeFor[PlanRequest](), "", fields)
	for f := range fields {
		if !set[f] {
			t.Errorf("no body sets wire field %q", f)
		}
	}
}

// FuzzPlanRequest fuzzes the /v1/plan decoder. Every body RunConfig
// accepts must normalize idempotently, hash, and expand as a sweep base
// to exactly its own config. The seeds include rejected bodies, the flat
// form among them.
func FuzzPlanRequest(f *testing.F) {
	for _, req := range identityGrid() {
		blob, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, p := range specBodies() {
		f.Add([]byte(p.body))
	}
	for _, b := range rejectedPlanBodies {
		f.Add([]byte(b.body))
	}
	for _, b := range cornerPlanBodies {
		f.Add([]byte(b.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodePlan(body)
		if err != nil {
			return
		}
		cfg, err := req.RunConfig()
		if err != nil {
			return
		}
		if again, err := exp.Normalize(cfg); err != nil || !reflect.DeepEqual(again, cfg) {
			t.Fatalf("Normalize not idempotent: %+v (err %v) from %+v", again, err, cfg)
		}
		if _, err := exp.ShapeHash(cfg); err != nil {
			t.Fatalf("ShapeHash: %v", err)
		}
		if _, err := exp.ConfigHash(cfg); err != nil {
			t.Fatalf("ConfigHash: %v", err)
		}
		cfgs, err := SweepRequest{Base: req}.configs()
		if err != nil || len(cfgs) != 1 || !reflect.DeepEqual(cfgs[0], cfg) {
			t.Fatalf("sweep base expands to %+v (err %v), want [%+v]", cfgs, err, cfg)
		}
	})
}

// FuzzFleetRequest fuzzes the /v1/fleet decoder. No body may panic, and
// every body normalize accepts must normalize again to itself under the
// same key, with a submit spread and a DRAM budget that convert without
// overflow.
func FuzzFleetRequest(f *testing.F) {
	for _, req := range []FleetRequest{smallFleet, {Nodes: 2, Jobs: 8, Seed: 1, Policies: []string{"fifo"}, Faults: "death@30s:node0:dev1,steal=NaN"}} {
		blob, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, body := range rejectedFleetBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"submit_spread_ms":1099511627776,"dram_gib":1048576}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req FleetRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/fleet", bytes.NewReader(body))
		if err := decodeBody(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		norm, key, err := req.normalize()
		if err != nil {
			return
		}
		again, againKey, err := norm.normalize()
		if err != nil || againKey != key || !reflect.DeepEqual(again, norm) {
			t.Fatalf("normalize not idempotent: %+v key %s (err %v), want %+v key %s", again, againKey, err, norm, key)
		}
		if d := norm.submitSpread(); d < 0 || d/time.Millisecond != time.Duration(norm.SubmitSpreadMs) {
			t.Fatalf("submit_spread_ms %d converts to %v", norm.SubmitSpreadMs, d)
		}
		if norm.DRAMGiB != nil {
			want := *norm.DRAMGiB * float64(units.GiB)
			if b := norm.dram(); b < 0 || float64(b) > want || want-float64(b) >= 1 {
				t.Fatalf("dram_gib %v converts to %d bytes", *norm.DRAMGiB, b)
			}
		}
	})
}
