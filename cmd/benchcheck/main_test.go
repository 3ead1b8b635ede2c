package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeRun renders go test -bench output for every recorded benchmark at
// one GOMAXPROCS, n samples each. tweak may change a benchmark's
// (ns/op, allocs/op) for sample i.
func fakeRun(procs, n int, tweak func(bench string, i int, ns float64, allocs int64) (float64, int64)) string {
	base := map[string]struct {
		ns     float64
		allocs int64
	}{
		"BenchmarkCompiledSweep": {3e6, 10142}, "BenchmarkCompiledShareSweep": {1.2e6, 4223},
		"BenchmarkTieredSweep": {2.8e6, 8033}, "BenchmarkSessionShareSweep": {0.9e6, 540},
		"BenchmarkSessionTieredSweep": {1.8e6, 372}, "BenchmarkRecorderDisabledEmit": {0.5, 0},
		"BenchmarkTracedShareSweep": {1.05e6, 512}, "BenchmarkFullSimShareSweep": {2.5e9, 1084191},
		"BenchmarkSteadyShareSweep": {6e6, 4235}, "BenchmarkOptimSyncSweep": {1e6, 1076},
		"BenchmarkOptimOverlapSweep": {1.05e6, 1133}, "BenchmarkRingLookup": {100, 0},
		"BenchmarkHedgedRequest": {1.1e6, 157},
	}
	suffix := ""
	if procs != 1 {
		suffix = fmt.Sprintf("-%d", procs)
	}
	var b strings.Builder
	seen := map[string]bool{}
	for _, pkg := range []string{"ssdtrain", "ssdtrain/internal/cluster"} {
		fmt.Fprintf(&b, "goos: linux\ngoarch: amd64\npkg: %s\ncpu: Test CPU\n", pkg)
		for _, r := range results {
			p, name, _ := strings.Cut(r.bench, ".Benchmark")
			name = "Benchmark" + name
			if p != pkg || seen[r.bench] {
				continue
			}
			seen[r.bench] = true
			for i := 0; i < n; i++ {
				ns, allocs := base[name].ns, base[name].allocs
				if tweak != nil {
					ns, allocs = tweak(name, i, ns, allocs)
				}
				fmt.Fprintf(&b, "%s%s \t     100\t%12.1f ns/op\t    4096 B/op\t%8d allocs/op\n", name, suffix, ns, allocs)
			}
		}
		fmt.Fprintf(&b, "PASS\nok  \t%s\t1.0s\n", pkg)
	}
	return b.String()
}

func mustParse(t *testing.T, out string) *run {
	t.Helper()
	rn, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return rn
}

func mustRecord(t *testing.T) *Record {
	t.Helper()
	rec, err := write(mustParse(t, fakeRun(2, 5, nil)))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// checkErrs gates out against the record and returns the failures as
// one string.
func checkErrs(t *testing.T, rec *Record, out string) string {
	t.Helper()
	var msgs []string
	for _, err := range check(rec, mustParse(t, out), io.Discard) {
		msgs = append(msgs, err.Error())
	}
	return strings.Join(msgs, "\n")
}

// TestCommittedRecord: the committed BENCH.json holds every gated
// result and ratio, with the samples a record needs and the steady-state
// floor met.
func TestCommittedRecord(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	for _, err := range rec.validate() {
		t.Error(err)
	}
}

func TestParse(t *testing.T) {
	rn := mustParse(t, fakeRun(1, 3, nil)+fakeRun(4, 2, nil))
	got := rn.samples["ssdtrain/internal/cluster.BenchmarkRingLookup"]
	if len(got[1]) != 3 || len(got[4]) != 2 {
		t.Fatalf("GOMAXPROCS split %v, want 3 samples at 1 and 2 at 4", got)
	}
	if rn.cpu != "Test CPU" {
		t.Errorf("cpu %q", rn.cpu)
	}
	if _, err := parse(strings.NewReader("BenchmarkX-2 \t 10\t 5.0 ns/op\n")); err == nil {
		t.Error("a run without -benchmem parsed")
	}
	if _, err := parse(strings.NewReader(fakeRun(2, 1, nil) + "--- FAIL: BenchmarkSteadyShareSweep-2\nFAIL\n")); err == nil {
		t.Error("a failed run parsed")
	}
}

func TestWrite(t *testing.T) {
	rec := mustRecord(t)
	r := rec.Sections["trace"].Results["untraced_share_sweep"]
	if r.GOMAXPROCS != 2 || r.Samples != 5 || r.AllocsPerOp != 540 || r.NsPerOp.Median != 0.9e6 {
		t.Fatalf("untraced_share_sweep %+v", r)
	}
	if q := rec.Sections["steady"].Ratios["steady_vs_full"]; q.Median != 6e6/2.5e9 {
		t.Fatalf("steady_vs_full %+v", q)
	}
	n := 0
	for _, s := range rec.Sections {
		n += len(s.Results)
	}
	if n != len(results) {
		t.Fatalf("%d results recorded, want %d", n, len(results))
	}
	if _, err := write(mustParse(t, fakeRun(2, 4, nil))); err == nil || !strings.Contains(err.Error(), "samples") {
		t.Errorf("a 4-sample run made a record: %v", err)
	}
	if _, err := write(mustParse(t, fakeRun(1, 5, nil)+fakeRun(2, 5, nil))); err == nil {
		t.Error("a run at two GOMAXPROCS made a record")
	}
}

// TestGateRegressions: an unchanged run passes at any GOMAXPROCS, and
// each kind of regression fails with a message naming its result.
func TestGateRegressions(t *testing.T) {
	rec := mustRecord(t)
	if msg := checkErrs(t, rec, fakeRun(4, 3, nil)+fakeRun(1, 2, nil)); msg != "" {
		t.Fatalf("unchanged run failed:\n%s", msg)
	}
	cases := []struct {
		name  string
		tweak func(bench string, i int, ns float64, allocs int64) (float64, int64)
		want  string
	}{
		{"one more alloc per step", func(b string, i int, ns float64, a int64) (float64, int64) {
			if strings.Contains(b, "Session") {
				a += 16
			}
			return ns, a
		}, "session/session_share_sweep at GOMAXPROCS 2: allocs/op 556, record 540"},
		{"a zero-alloc path allocates", func(b string, i int, ns float64, a int64) (float64, int64) {
			if b == "BenchmarkRingLookup" {
				a = 1
			}
			return ns, a
		}, "cluster/ring_lookup"},
		{"stale record", func(b string, i int, ns float64, a int64) (float64, int64) {
			if b == "BenchmarkHedgedRequest" {
				a -= 10
			}
			return ns, a
		}, "cluster/hedged_request at GOMAXPROCS 2: allocs/op 147, record 157: fewer allocations, re-take"},
		{"fast path slower", func(b string, i int, ns float64, a int64) (float64, int64) {
			if b == "BenchmarkSteadyShareSweep" {
				ns *= 3
			}
			return ns, a
		}, "steady/steady_vs_full"},
		{"tracing costs more", func(b string, i int, ns float64, a int64) (float64, int64) {
			if b == "BenchmarkTracedShareSweep" {
				ns *= 2
			}
			return ns, a
		}, "trace/traced_vs_untraced"},
	}
	for _, tc := range cases {
		msg := checkErrs(t, rec, fakeRun(2, 5, tc.tweak))
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s: failures %q, want one containing %q", tc.name, msg, tc.want)
		}
	}
	// A uniformly slower host moves every ns/op and no ratio: it passes.
	slow := func(b string, i int, ns float64, a int64) (float64, int64) { return 3 * ns, a }
	if msg := checkErrs(t, rec, fakeRun(2, 5, slow)); msg != "" {
		t.Errorf("a uniformly slower host failed:\n%s", msg)
	}
}

// TestSteadyFloor: the steady-state fast path must stay 10x faster than
// full simulation, in the record and in every run.
func TestSteadyFloor(t *testing.T) {
	rec := mustRecord(t)
	steady := func(speedup float64) func(string, int, float64, int64) (float64, int64) {
		return func(b string, i int, ns float64, a int64) (float64, int64) {
			if b == "BenchmarkSteadyShareSweep" {
				ns = 2.5e9 / speedup
			}
			return ns, a
		}
	}
	if _, err := write(mustParse(t, fakeRun(2, 5, steady(12.5)))); err != nil {
		t.Errorf("a 12.5x record rejected: %v", err)
	}
	if _, err := write(mustParse(t, fakeRun(2, 5, steady(9.5)))); err == nil || !strings.Contains(err.Error(), "above the ceiling 0.1000") {
		t.Errorf("a 9.5x record accepted against a 10x floor: %v", err)
	}
	if msg := checkErrs(t, rec, fakeRun(2, 5, steady(9.5))); !strings.Contains(msg, "above the ceiling 0.1000") {
		t.Errorf("a 9.5x run: failures %q, want one above the ceiling", msg)
	}
}

// TestGateMissingResult: a run whose -bench pattern drifted cannot drop
// a gate silently, and neither can a record that lost a result.
func TestGateMissingResult(t *testing.T) {
	rec := mustRecord(t)
	var kept []string
	for _, line := range strings.Split(fakeRun(2, 5, nil), "\n") {
		if !strings.HasPrefix(line, "BenchmarkOptimOverlapSweep") {
			kept = append(kept, line)
		}
	}
	if msg := checkErrs(t, rec, strings.Join(kept, "\n")); !strings.Contains(msg, "optim/optim_overlap_sweep: ssdtrain.BenchmarkOptimOverlapSweep missing from the run") {
		t.Errorf("dropped benchmark: failures %q", msg)
	}
	delete(rec.Sections["cluster"].Results, "ring_lookup")
	if msg := checkErrs(t, rec, fakeRun(2, 5, nil)); !strings.Contains(msg, "cluster/ring_lookup: not in the record") {
		t.Errorf("record without ring_lookup: failures %q", msg)
	}
}
