package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json declares
// exactly the workloads and metrics the program reports, with the same
// units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// TestSelfTest runs the benchmark's short self-test mode.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := selfTest(io.Discard, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestRowOf pins the CPU attribution rules on hand-written stacks, leaf
// first.
func TestRowOf(t *testing.T) {
	rows := map[string]bool{"gpu": true, "serve": true, "exp": true}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess1_fast64", "ssdtrain/internal/gpu.(*Allocator).Alloc", "ssdtrain/internal/exp.(*Session).Execute"}, "gpu"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "ssdtrain/internal/gpu.(*Allocator).Alloc"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "encoding/json.(*encodeState).marshal", "ssdtrain/internal/serve.RenderPlanResult"}, "json"},
		{[]string{"internal/runtime/syscall.Syscall6", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*conn).serve"}, "http"},
		{[]string{"ssdtrain/internal/units.Bandwidth.TimeFor", "ssdtrain/internal/gpu.(*Allocator).Alloc"}, "other"},
		{[]string{"hash/fnv.(*sum64a).Write", "main.hash", "main.(*serveWorkload).next"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	} {
		if got := rowOf(c.stack, rows); got != c.want {
			t.Errorf("rowOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
