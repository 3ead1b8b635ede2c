// Command benchcheck keeps the repository's one benchmark record,
// BENCH.json, and gates fresh runs against it. It reads standard
// `go test -bench -benchmem` output, from a file or stdin:
//
//	go test -run=NONE -bench "$BENCH" -benchmem -count=5 . ./internal/cluster > bench.txt
//	benchcheck -write bench.txt   # take the record (at least 5 samples per result)
//	benchcheck bench.txt          # check a fresh run against the record
//
// where $BENCH is the pattern in .github/workflows/ci.yml. Profiles come
// from the same run: add -cpuprofile or -memprofile to go test.
//
// The record holds, per result, the median and quartiles of ns/op,
// GOMAXPROCS (the benchmark name's -P suffix; 1 has none), allocs/op and
// B/op, and per ratio the median of the same-run sample pairs. The gate
// judges only numbers that do not depend on the host. It fails when
//   - a recorded result is missing from the run;
//   - allocs/op differs from the record by more than allocSlack, in
//     either direction: a lower count means the record is stale;
//   - a same-run ns/op ratio is worse than the record's by more than its
//     bound, or above its ceiling.
//
// Absolute ns/op is recorded but not gated: host speed is measured by
// perfbench in same-host parent/change pairs. The bounds are the tables
// below; there are no tolerance flags.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// result names one recorded result and the benchmark that measures it.
type result struct {
	section, name, bench string
}

// results is every recorded result, by section. untraced_share_sweep
// re-measures session_share_sweep so the trace section is whole.
var results = []result{
	{"hotpath", "compiled_sweep", "ssdtrain.BenchmarkCompiledSweep"},
	{"hotpath", "compiled_share_sweep", "ssdtrain.BenchmarkCompiledShareSweep"},
	{"tier", "tiered_sweep", "ssdtrain.BenchmarkTieredSweep"},
	{"session", "session_share_sweep", "ssdtrain.BenchmarkSessionShareSweep"},
	{"session", "session_tiered_sweep", "ssdtrain.BenchmarkSessionTieredSweep"},
	{"trace", "recorder_disabled_emit", "ssdtrain.BenchmarkRecorderDisabledEmit"},
	{"trace", "untraced_share_sweep", "ssdtrain.BenchmarkSessionShareSweep"},
	{"trace", "traced_share_sweep", "ssdtrain.BenchmarkTracedShareSweep"},
	{"steady", "fullsim_share_sweep_10k", "ssdtrain.BenchmarkFullSimShareSweep"},
	{"steady", "steady_share_sweep_10k", "ssdtrain.BenchmarkSteadyShareSweep"},
	{"optim", "optim_sync_sweep", "ssdtrain.BenchmarkOptimSyncSweep"},
	{"optim", "optim_overlap_sweep", "ssdtrain.BenchmarkOptimOverlapSweep"},
	{"cluster", "ring_lookup", "ssdtrain/internal/cluster.BenchmarkRingLookup"},
	{"cluster", "hedged_request", "ssdtrain/internal/cluster.BenchmarkHedgedRequest"},
}

// ratio is a same-run ns/op ratio num/den: lower is better.
type ratio struct {
	section, name, num, den string
	// bound is how far the fresh median may exceed the recorded one,
	// as a factor.
	bound float64
	// ceiling, when positive, is a limit the fresh median must stay
	// under whatever the record says.
	ceiling float64
}

// ratios is every gated ratio. The bounds sit above the spread of
// GOMAXPROCS 1, 2 and 4 runs against a GOMAXPROCS 2 record on one
// 2-vCPU host (EXPERIMENTS.md). Traced and steady need the most room:
// both rise at GOMAXPROCS 4 on 2 CPUs.
var ratios = []ratio{
	{"session", "session_vs_fresh_share", "session_share_sweep", "compiled_share_sweep", 1.4, 0},
	{"session", "session_vs_fresh_tiered", "session_tiered_sweep", "tiered_sweep", 1.4, 0},
	{"trace", "traced_vs_untraced", "traced_share_sweep", "untraced_share_sweep", 1.8, 0},
	// The fast path must stay at least 10x faster than full simulation.
	{"steady", "steady_vs_full", "steady_share_sweep_10k", "fullsim_share_sweep_10k", 2.2, 0.1},
	{"optim", "overlap_vs_sync", "optim_overlap_sweep", "optim_sync_sweep", 1.3, 0},
}

// allocSlack is how far allocs/op may move from a record of want, in
// either direction: 0.1% or 2 allocations, whichever is more, and none
// at all for a result recorded allocation-free. The widest spread over
// 80 samples per result was 7 of 1084191 (fullsim_share_sweep_10k) and
// 1 of 157 (hedged_request); one extra allocation per simulated step
// adds at least 16 to every sweep.
func allocSlack(want int64) int64 {
	if want == 0 {
		return 0
	}
	return max(2, want/1000)
}

// minSamples is the fewest samples a record may hold per result.
const minSamples = 5

// Record is BENCH.json.
type Record struct {
	Note     string             `json:"note"`
	Go       string             `json:"go"`
	CPU      string             `json:"cpu"`
	Sections map[string]Section `json:"sections"`
}

// Section is one record area: its results and the ratios among them.
type Section struct {
	Results map[string]Result `json:"results"`
	Ratios  map[string]Ratio  `json:"ratios,omitempty"`
}

// Result is one benchmark's samples, summarized.
type Result struct {
	Bench       string `json:"bench"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Samples     int    `json:"samples"`
	NsPerOp     Spread `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// Spread is the median and quartiles of a sample.
type Spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// Ratio is the median of num/den over same-run sample pairs.
type Ratio struct {
	Num    string  `json:"num"`
	Den    string  `json:"den"`
	Median float64 `json:"median"`
}

// sample is one benchmark output line.
type sample struct {
	ns            float64
	allocs, bytes int64
}

// run is a parsed go test output: samples by package-qualified
// benchmark name, then by GOMAXPROCS, in output order.
type run struct {
	cpu     string
	samples map[string]map[int][]sample
}

// parse reads go test -bench output. A failed test or benchmark fails
// the parse, so a broken run is never mistaken for a slow one.
func parse(r io.Reader) (*run, error) {
	out := &run{samples: make(map[string]map[int][]sample)}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			out.cpu = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "FAIL"):
			return nil, fmt.Errorf("the run failed: %s", line)
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue // a benchmark's log line, or its name before output
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name, procs := f[0], 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], p
			}
		}
		s := sample{allocs: -1, bytes: -1}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", f[i], line)
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = v
			case "allocs/op":
				s.allocs = int64(v)
			case "B/op":
				s.bytes = int64(v)
			}
		}
		if s.ns <= 0 || s.allocs < 0 || s.bytes < 0 {
			return nil, fmt.Errorf("want ns/op, B/op and allocs/op (run with -benchmem): %q", line)
		}
		key := pkg + "." + name
		if out.samples[key] == nil {
			out.samples[key] = make(map[int][]sample)
		}
		out.samples[key][procs] = append(out.samples[key][procs], s)
	}
	return out, sc.Err()
}

// quantile interpolates the p-quantile of sorted xs.
func quantile(xs []float64, p float64) float64 {
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func spread(xs []float64) Spread {
	xs = slices.Sorted(slices.Values(xs))
	return Spread{Q1: quantile(xs, 0.25), Median: quantile(xs, 0.5), Q3: quantile(xs, 0.75)}
}

// summarize reduces one benchmark's samples at one GOMAXPROCS.
func summarize(bench string, procs int, ss []sample) Result {
	ns := make([]float64, len(ss))
	allocs := make([]float64, len(ss))
	bytes := make([]float64, len(ss))
	for i, s := range ss {
		ns[i], allocs[i], bytes[i] = s.ns, float64(s.allocs), float64(s.bytes)
	}
	return Result{
		Bench:       bench,
		GOMAXPROCS:  procs,
		Samples:     len(ss),
		NsPerOp:     spread(ns),
		AllocsPerOp: int64(math.Round(spread(allocs).Median)),
		BytesPerOp:  int64(math.Round(spread(bytes).Median)),
	}
}

// pairRatio is the median of num[i]/den[i] over the pairs both runs
// have.
func pairRatio(num, den []sample) float64 {
	n := min(len(num), len(den))
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = num[i].ns / den[i].ns
	}
	return spread(rs).Median
}

// procsOf lists the GOMAXPROCS values a benchmark ran at, ascending.
func procsOf(byProcs map[int][]sample) []int { return slices.Sorted(maps.Keys(byProcs)) }

// benchOf maps a result name to its benchmark.
func benchOf(name string) string {
	for _, r := range results {
		if r.name == name {
			return r.bench
		}
	}
	panic("benchcheck: no result " + name)
}

// write builds the record from one run at one GOMAXPROCS.
func write(rn *run) (*Record, error) {
	rec := &Record{
		Note: "ns/op spreads are this host's; allocs/op and the ratios are what cmd/benchcheck gates",
		Go:   runtime.Version(), CPU: rn.cpu, Sections: make(map[string]Section),
	}
	section := func(name string) Section {
		if _, ok := rec.Sections[name]; !ok {
			rec.Sections[name] = Section{Results: make(map[string]Result), Ratios: make(map[string]Ratio)}
		}
		return rec.Sections[name]
	}
	var errs []error
	for _, r := range results {
		byProcs := rn.samples[r.bench]
		ps := procsOf(byProcs)
		switch {
		case len(ps) == 0:
			errs = append(errs, fmt.Errorf("%s/%s: %s missing from the run", r.section, r.name, r.bench))
			continue
		case len(ps) > 1:
			errs = append(errs, fmt.Errorf("%s/%s: ran at GOMAXPROCS %v; record one", r.section, r.name, ps))
			continue
		case len(byProcs[ps[0]]) < minSamples:
			errs = append(errs, fmt.Errorf("%s/%s: %d samples, the record needs %d (-count)", r.section, r.name, len(byProcs[ps[0]]), minSamples))
			continue
		}
		section(r.section).Results[r.name] = summarize(r.bench, ps[0], byProcs[ps[0]])
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	for _, q := range ratios {
		num, den := rn.samples[benchOf(q.num)], rn.samples[benchOf(q.den)]
		p := procsOf(num)[0]
		section(q.section).Ratios[q.name] = Ratio{Num: q.num, Den: q.den, Median: pairRatio(num[p], den[p])}
	}
	return rec, errors.Join(rec.validate()...)
}

// validate reports what keeps rec from serving as the record: a result
// missing or with too few samples, a ratio missing or above its ceiling.
func (rec *Record) validate() []error {
	var errs []error
	for _, r := range results {
		if got := rec.Sections[r.section].Results[r.name]; got.Samples < minSamples || got.NsPerOp.Median <= 0 {
			errs = append(errs, fmt.Errorf("%s/%s: not in the record with %d samples; re-take BENCH.json", r.section, r.name, minSamples))
		}
	}
	for _, q := range ratios {
		got, ok := rec.Sections[q.section].Ratios[q.name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("%s/%s: not in the record; re-take BENCH.json", q.section, q.name))
		case q.ceiling > 0 && got.Median > q.ceiling:
			errs = append(errs, fmt.Errorf("%s/%s: %.4f, above the ceiling %.4f", q.section, q.name, got.Median, q.ceiling))
		}
	}
	return errs
}

// check gates a run against the record and returns one error per
// failure, each naming its result. report gets a line per gated number.
func check(rec *Record, rn *run, report io.Writer) []error {
	errs := rec.validate()
	if len(errs) > 0 {
		return errs
	}
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	for _, r := range results {
		want := rec.Sections[r.section].Results[r.name]
		byProcs := rn.samples[r.bench]
		if len(byProcs) == 0 {
			fail("%s/%s: %s missing from the run", r.section, r.name, r.bench)
			continue
		}
		for _, p := range procsOf(byProcs) {
			got := summarize(r.bench, p, byProcs[p])
			slack := allocSlack(want.AllocsPerOp)
			status := "ok"
			switch {
			case got.AllocsPerOp > want.AllocsPerOp+slack:
				status = "FAIL"
				fail("%s/%s at GOMAXPROCS %d: allocs/op %d, record %d (bound ±%d)", r.section, r.name, p, got.AllocsPerOp, want.AllocsPerOp, slack)
			case got.AllocsPerOp < want.AllocsPerOp-slack:
				status = "FAIL"
				fail("%s/%s at GOMAXPROCS %d: allocs/op %d, record %d: fewer allocations, re-take BENCH.json", r.section, r.name, p, got.AllocsPerOp, want.AllocsPerOp)
			}
			fmt.Fprintf(report, "%-4s %-8s %-24s P%-2d allocs/op %8d (record %8d)  ns/op %12.1f (record %12.1f)\n",
				status, r.section, r.name, p, got.AllocsPerOp, want.AllocsPerOp, got.NsPerOp.Median, want.NsPerOp.Median)
		}
	}
	for _, q := range ratios {
		want := rec.Sections[q.section].Ratios[q.name]
		num, den := rn.samples[benchOf(q.num)], rn.samples[benchOf(q.den)]
		for _, p := range procsOf(num) {
			if len(den[p]) == 0 {
				continue // the missing result is reported above
			}
			got := pairRatio(num[p], den[p])
			limit := want.Median * q.bound
			status := "ok"
			if got > limit {
				status = "FAIL"
				fail("%s/%s at GOMAXPROCS %d: %s/%s = %.4f, record %.4f (bound x%.2f = %.4f)", q.section, q.name, p, q.num, q.den, got, want.Median, q.bound, limit)
			}
			if q.ceiling > 0 && got > q.ceiling {
				status = "FAIL"
				fail("%s/%s at GOMAXPROCS %d: %s/%s = %.4f, above the ceiling %.4f", q.section, q.name, p, q.num, q.den, got, q.ceiling)
			}
			fmt.Fprintf(report, "%-4s %-8s %-24s P%-2d ratio %.4f (record %.4f, limit %.4f)\n", status, q.section, q.name, p, got, want.Median, limit)
		}
	}
	return errs
}

func main() {
	recordPath := flag.String("record", "BENCH.json", "the record file")
	doWrite := flag.Bool("write", false, "write the record from the run instead of checking the run against it")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: benchcheck [-record BENCH.json] [-write] [go-test-bench-output]")
		flag.PrintDefaults()
	}
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	rn, err := parse(in)
	if err != nil {
		log.Fatal(err)
	}

	if *doWrite {
		rec, err := write(rn)
		if err != nil {
			log.Fatal(err)
		}
		blob, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*recordPath, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *recordPath)
		return
	}

	blob, err := os.ReadFile(*recordPath)
	if err != nil {
		log.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		log.Fatalf("%s: %v", *recordPath, err)
	}
	if errs := check(&rec, rn, os.Stdout); len(errs) > 0 {
		for _, err := range errs {
			log.Print(err)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: every gated number within its bound")
}
