package exp

import (
	"encoding/json"
	"reflect"
	"testing"

	"ssdtrain/internal/spans"
)

// tracedVariants returns one config per strategy × placement worth
// tracing, small enough for a unit test.
func tracedVariants() []RunConfig {
	ssdSplit := smallCfg(HybridOffload)
	ssdSplit.Placement = PlacementSplit
	ssdSplit.SplitRatio = 0.5
	ssdSplit.DRAMCapacity = 256 << 20
	dramFirst := smallCfg(HybridOffload)
	dramFirst.Placement = PlacementDRAMFirst
	dramFirst.DRAMCapacity = 256 << 20
	ssdOnly := smallCfg(HybridOffload)
	ssdOnly.Placement = PlacementSSDOnly
	return []RunConfig{
		smallCfg(NoOffload),
		smallCfg(Recompute),
		smallCfg(SSDTrain),
		smallCfg(CPUOffload),
		ssdSplit,
		dramFirst,
		ssdOnly,
	}
}

// TestTracedRunDoesNotPerturbResults is the tentpole's correctness
// property: for every strategy and placement, a traced run's RunResult is
// byte-identical to the untraced run's (Trace snapshot aside), on both
// fresh arenas and a reused session. Tracing must observe the simulation,
// never steer it.
func TestTracedRunDoesNotPerturbResults(t *testing.T) {
	for _, cfg := range tracedVariants() {
		cfg := cfg
		t.Run(string(cfg.Strategy)+"/"+string(cfg.Placement), func(t *testing.T) {
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			traced := cfg
			traced.Trace = true
			got, err := Run(traced)
			if err != nil {
				t.Fatal(err)
			}
			if got.Trace == nil {
				t.Fatal("traced run returned no trace")
			}
			if len(got.Trace.Spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			// Byte-identity modulo the knob itself, the snapshot, and the
			// fast-path metadata: a traced run is fully simulated while the
			// untraced one extrapolates its steady state, so their
			// SteadyState reports legitimately differ — everything the
			// simulation produced must still be byte-identical.
			got.Trace = nil
			got.Config.Trace = false
			got.SteadyState = plain.SteadyState
			if !reflect.DeepEqual(plain, got) {
				t.Errorf("traced result differs from untraced (cfg %+v)", cfg)
			}

			// Same property on a reused arena: trace, untrace, trace again
			// on one session; the middle run must match the plain run and
			// both traced runs must match each other.
			plan, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(plan)
			if err != nil {
				t.Fatal(err)
			}
			first, err := sess.Execute(traced)
			if err != nil {
				t.Fatal(err)
			}
			mid, err := sess.Execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, mid) {
				t.Error("untraced session run after a traced one differs from fresh untraced")
			}
			second, err := sess.Execute(traced)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Error("traced session runs are not reproducible")
			}
		})
	}
}

// TestSessionTraceMatchesFresh pins the recorder's arena-reuse contract:
// the spans recorded on a dirtied, reused session are identical — same
// tracks, same order, same timestamps — to a fresh Plan.Execute's, even
// after a failed run sat between them.
func TestSessionTraceMatchesFresh(t *testing.T) {
	cfg := smallCfg(CPUOffload)
	cfg.Trace = true
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(plan)
	if err != nil {
		t.Fatal(err)
	}

	// Dirty the arena: a clean traced run, then a run that fails
	// mid-simulation on a too-small pinned pool.
	if _, err := sess.Execute(cfg); err != nil {
		t.Fatal(err)
	}
	tight := cfg
	tight.DRAMCapacity = ref.SSDPeak / 2
	if _, err := sess.Execute(tight); err == nil {
		t.Fatal("overflow not reported")
	}

	got, err := sess.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Trace, got.Trace) {
		t.Error("reused-session trace differs from fresh trace after a failed run")
	}
}

// TestReferenceChromeTraceGolden pins the exported Chrome trace-event
// JSON of the reference config byte-for-byte, and checks it parses as the
// trace-event container format.
func TestReferenceChromeTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale geometry")
	}
	blob, err := ReferenceChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/trace_chrome.golden", string(blob))
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("golden trace has no events")
	}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "pid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
	}
}

// TestTraceFlowLinksOffloadToReload asserts a traced SSD run records
// store and load spans sharing a flow id — the offload→reload linkage the
// Chrome exporter renders as flow arrows.
func TestTraceFlowLinksOffloadToReload(t *testing.T) {
	cfg := smallCfg(SSDTrain)
	cfg.Trace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[uint64]bool{}
	linked := 0
	for _, s := range res.Trace.Spans {
		switch s.Kind {
		case spans.KindStore:
			if s.Flow != 0 {
				stores[s.Flow] = true
			}
		case spans.KindLoad:
			if stores[s.Flow] {
				linked++
			}
		}
	}
	if linked == 0 {
		t.Error("no load span shares a flow id with a store span")
	}
}
