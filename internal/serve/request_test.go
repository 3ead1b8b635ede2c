package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ssdtrain/internal/exp"
)

// decodePlan decodes a /v1/plan body through the handlers' decodeBody.
func decodePlan(body []byte) (PlanRequest, error) {
	var req PlanRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	err := decodeBody(httptest.NewRecorder(), r, &req)
	return req, err
}

// nestedTwin rewrites a flat request as the nested "spec" body asking
// the same question. The flat strategy "optim-offload" becomes the
// nested optimizer.offload flag, the spelling the selfcheck uses.
func nestedTwin(r PlanRequest) PlanRequest {
	s := &SpecRequest{
		Model: r.Model,
		Offload: OffloadRequest{
			Strategy:          r.Strategy,
			Placement:         r.Placement,
			DRAMCapacityBytes: r.DRAMCapacityBytes,
			SplitRatio:        r.SplitRatio,
			BudgetBytes:       r.BudgetBytes,
			KeepLastModules:   r.KeepLastModules,
			PrefetchAhead:     r.PrefetchAhead,
			DisableGDS:        r.DisableGDS,
		},
		Optimizer: OptimizerRequest{Kind: r.OptimKind, Schedule: r.Schedule},
		Run:       RunRequest{Steps: r.Steps, Warmup: r.Warmup, MicroBatches: r.MicroBatches},
		Inject:    InjectRequest{Faults: r.Faults, SSDBandwidthShare: r.SSDBandwidthShare},
	}
	if r.Strategy == string(exp.OptimOffload) {
		s.Offload.Strategy, s.Optimizer.Offload = "", true
	}
	return PlanRequest{Spec: s}
}

// specFormPairs are flat /v1/plan bodies and their nested twins,
// including the two pairs cmd/serve -selfcheck posts. Between them they
// set every wire field of both forms.
var specFormPairs = []struct{ name, flat, nested string }{
	{
		"ssdtrain tuned",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4,"seq_len":512,"head_dim":64,"tp":1},"strategy":"ssdtrain",` +
			`"steps":3,"warmup":1,"micro_batches":2,"budget_bytes":268435456,"ssd_bandwidth_share":0.5,"keep_last_modules":2,"prefetch_ahead":1,"disable_gds":true}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4,"seq_len":512,"head_dim":64,"tp":1},` +
			`"offload":{"strategy":"ssdtrain","budget_bytes":268435456,"keep_last_modules":2,"prefetch_ahead":1,"disable_gds":true},` +
			`"run":{"steps":3,"warmup":1,"micro_batches":2},"inject":{"ssd_bandwidth_share":0.5}}}`,
	},
	{
		"no-offload",
		`{"model":{"arch":"gpt","hidden":2048,"layers":2,"batch":4},"strategy":"no-offload","steps":4}`,
		`{"spec":{"model":{"arch":"gpt","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"no-offload"},"run":{"steps":4}}}`,
	},
	{
		"recompute",
		`{"model":{"arch":"t5","hidden":2048,"layers":2,"batch":4},"strategy":"recompute","keep_last_modules":-1}`,
		`{"spec":{"model":{"arch":"t5","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"recompute","keep_last_modules":-1}}}`,
	},
	{
		"cpu-offload",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"cpu-offload","dram_capacity_bytes":2147483648}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"cpu-offload","dram_capacity_bytes":2147483648}}}`,
	},
	{
		"hybrid ssd-only",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"hybrid","placement":"ssd-only","dram_capacity_bytes":268435456}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"hybrid","placement":"ssd-only","dram_capacity_bytes":268435456}}}`,
	},
	{
		"hybrid dram-first (selfcheck pair)",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"hybrid","placement":"dram-first","dram_capacity_bytes":1073741824}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"hybrid","placement":"dram-first","dram_capacity_bytes":1073741824}}}`,
	},
	{
		"hybrid split",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"hybrid","placement":"split","split_ratio":0.25,"dram_capacity_bytes":1073741824}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"hybrid","placement":"split","split_ratio":0.25,"dram_capacity_bytes":1073741824}}}`,
	},
	{
		"optim-offload overlap (selfcheck pair)",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"optim-offload","schedule":"overlap","dram_capacity_bytes":1073741824}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"dram_capacity_bytes":1073741824},"optimizer":{"offload":true,"schedule":"overlap"}}}`,
	},
	{
		"optim-offload sgd",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"optim-offload","optim_kind":"sgd","schedule":"sync","ssd_bandwidth_share":0.25}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"optimizer":{"kind":"sgd","offload":true,"schedule":"sync"},"inject":{"ssd_bandwidth_share":0.25}}}`,
	},
	{
		"timed death and rebuild",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"ssdtrain","steps":12,` +
			`"faults":{"device_death_at_us":93364,"device":1,"rebuild_for_us":5000,"rebuild_steal":0.5}}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"},"run":{"steps":12},` +
			`"inject":{"faults":{"device_death_at_us":93364,"device":1,"rebuild_for_us":5000,"rebuild_steal":0.5}}}}`,
	},
	{
		"wear death and degrade",
		`{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"strategy":"hybrid","dram_capacity_bytes":268435456,` +
			`"faults":{"wear_threshold":0.5,"device":-1,"degrade_at_us":1000,"degrade_factor":0.5,"degrade_for_us":2000}}`,
		`{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"hybrid","dram_capacity_bytes":268435456},` +
			`"inject":{"faults":{"wear_threshold":0.5,"device":-1,"degrade_at_us":1000,"degrade_factor":0.5,"degrade_for_us":2000}}}}`,
	},
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

// TestNestedBodyMatchesFlat checks the two /v1/plan body forms field for
// field: each nested body is nestedTwin of its flat body, and both
// resolve to one exp.RunConfig.
func TestNestedBodyMatchesFlat(t *testing.T) {
	for _, p := range specFormPairs {
		flat, err := decodePlan([]byte(p.flat))
		if err != nil {
			t.Fatalf("%s: flat body: %v", p.name, err)
		}
		nested, err := decodePlan([]byte(p.nested))
		if err != nil {
			t.Fatalf("%s: nested body: %v", p.name, err)
		}
		if twin := nestedTwin(flat); !reflect.DeepEqual(twin, nested) {
			t.Errorf("%s: nestedTwin(flat) = %+v, want the nested body %+v", p.name, *twin.Spec, *nested.Spec)
		}
		want, err := flat.RunConfig()
		if err != nil {
			t.Fatalf("%s: flat RunConfig: %v", p.name, err)
		}
		got, err := nested.RunConfig()
		if err != nil {
			t.Fatalf("%s: nested RunConfig: %v", p.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: nested config differs from flat:\n%+v\nvs\n%+v", p.name, got, want)
		}
	}
}

// TestSpecFormPairsCoverWire keeps specFormPairs complete: a wire field
// no row sets fails here until a row sets it.
func TestSpecFormPairsCoverWire(t *testing.T) {
	set := map[string]bool{}
	for _, p := range specFormPairs {
		for _, body := range []string{p.flat, p.nested} {
			var v any
			if err := json.Unmarshal([]byte(body), &v); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			bodyPaths(v, "", set)
		}
	}
	fields := map[string]bool{}
	wirePaths(reflect.TypeFor[PlanRequest](), "", fields)
	for f := range fields {
		if !set[f] {
			t.Errorf("no row sets wire field %q", f)
		}
	}
}

// FuzzPlanRequest fuzzes the /v1/plan decoder. Every body RunConfig
// accepts must normalize idempotently, hash, expand as a sweep base to
// exactly its own config, and — in the flat form — resolve to the same
// config as its nested twin.
func FuzzPlanRequest(f *testing.F) {
	for _, req := range identityGrid() {
		for _, r := range []PlanRequest{req, nestedTwin(req)} {
			blob, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	for _, p := range specFormPairs {
		f.Add([]byte(p.flat))
		f.Add([]byte(p.nested))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodePlan(body)
		if err != nil {
			return
		}
		cfg, err := req.RunConfig()
		if req.Spec == nil {
			twin, twinErr := nestedTwin(req).RunConfig()
			if (err == nil) != (twinErr == nil) || !reflect.DeepEqual(twin, cfg) {
				t.Fatalf("nested twin resolves to %+v (err %v), flat body to %+v (err %v)", twin, twinErr, cfg, err)
			}
		}
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
