// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the simulator's public entry points in a single
// process, checks the answers, and prints its metrics as one JSON object
// on the last line of standard output; a readable report goes to
// standard error.
//
//	perfbench --workload sweep|serve --seed N --seconds S --trace 0|1
//	perfbench --selftest
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics, including a CPU profile
// attributed to packages. NOTES.md describes the workloads, the
// steadiness protocol and what is deliberately left unmeasured.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
)

// settings are the steadiness knobs of one run.
type settings struct {
	// setupSamples is how many times setup runs (in fresh child
	// processes but one); setup_s is their median.
	setupSamples int
	// window is the length of the warm-up's windows and of the windows a
	// measured phase's timing metrics are quantiles over.
	window time.Duration
	// minWarm and maxWarm bound the warm-up (see warmup).
	minWarm, maxWarm time.Duration
	// minOps is the least operation count of a measured phase.
	minOps int
	// tolerance bounds the relative gap between the traced run's
	// per-package CPU rows and its measured CPU time per operation.
	tolerance float64
}

var (
	fullRun  = settings{setupSamples: 9, window: time.Second, minWarm: 2 * time.Second, maxWarm: 8 * time.Second, minOps: p99GroupOps, tolerance: 0.2}
	quickRun = settings{setupSamples: 1, window: 100 * time.Millisecond, minWarm: 200 * time.Millisecond, maxWarm: 400 * time.Millisecond, tolerance: 0.5}
)

// p99GroupOps is the least operation count of a p99 group: at least ten
// samples lie beyond its p99.
const p99GroupOps = 1000

var workloadNames = []string{"sweep", "serve"}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "sweep":
		return newSweep(seed), nil
	case "serve":
		return newServe(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed of the workload's operation sequence")
	seconds := fs.Float64("seconds", 30, "length of the measured phase (a traced run splits it between an untraced and a profiled half)")
	traced := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	outdir := fs.String("outdir", ".bench_build/perfbench", "directory for the traced run's span file")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once and print the seconds it took")
	selftest := fs.Bool("selftest", false, "run every workload briefly and check the output contract")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *selftest:
		if err := selfTest(stderr, *outdir); err != nil {
			fmt.Fprintln(stderr, "perfbench selftest:", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench selftest: ok")
		return 0
	case *setupOnly:
		d, err := setupOnce(*name, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, d.Seconds())
		return 0
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	res, err := measure(*name, *seed, d, *traced == 1, *outdir, fullRun, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload: setup (timed), the modeled-step metrics,
// warm-up, the measured phase, in a traced run a profiled phase, and the
// answer checks.
func measure(name string, seed uint64, seconds time.Duration, traced bool, outdir string, s settings, log io.Writer) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var setups []time.Duration
	if !traced {
		// Setup fills process-wide caches, so only a fresh process can
		// set up again: the other samples come from child processes.
		if setups, err = setupChildren(name, seed, s.setupSamples-1); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	planHits0, planMisses0, _, _ := exp.PlanCacheSnapshot()
	t0 := time.Now()
	compiles, err := w.setup(tr)
	setups = append(setups, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}

	// Per-layer metrics of layers the workload does not exercise read 0.
	m := make(map[string]float64)
	for _, d := range perLayer {
		m[d.name] = 0
	}
	slices.Sort(setups)
	slices.Sort(compiles)
	m["setup_s"] = quantile(setups, 0.5) / 1e3
	m["exp.compile_ms"] = quantile(compiles, 0.5)
	if err := modelMetrics(w.reference(), tr, m); err != nil {
		return nil, err
	}

	attempted, failed := warmup(w, s)
	measured := seconds
	if traced {
		measured = seconds / 2
	}
	runtime.GC()
	_, builds0 := models.GraphCacheStats()
	done := w.probe()
	p := runPhase(w, measured, s.window, nil)
	done(p, m)
	_, builds1 := models.GraphCacheStats()
	planHits1, planMisses1, _, _ := exp.PlanCacheSnapshot()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	attempted += p.ops
	failed += p.failed
	if p.ops < s.minOps {
		return nil, fmt.Errorf("%s: %d operations in the measured phase, p99 needs %d; run longer", name, p.ops, s.minOps)
	}

	ops := float64(p.ops)
	// Rates and latencies are medians over the phase's 1 s windows: other
	// tenants of the host slow it by 15-50% in episodes of seconds to
	// minutes, and the median window moves less with them than a
	// whole-phase figure does. The tail is the most exposed to them (one
	// preemption can hold a dozen operations), so p99 is the fast quartile
	// of the groups' p99s.
	m["ops_per_s"] = p.windowQuantile(0.5, func(w window) float64 { return float64(w.ops) / w.wall.Seconds() })
	m["lat_p50_ms"] = p.windowQuantile(0.5, func(w window) float64 { return quantile(w.lat, 0.5) })
	m["lat_p99_ms"] = p.p99(p99GroupOps, 0.25)
	m["cpu_ms_per_op"] = p.windowQuantile(0.5, func(w window) float64 { return ms(w.cpu) / float64(w.ops) })
	m["allocs_per_op"] = float64(p.mallocs) / ops
	m["alloc_kib_per_op"] = float64(p.bytes) / 1024 / ops
	m["heap_live_mib"] = float64(mem.HeapAlloc) / (1 << 20)
	m["max_rss_mib"] = maxRSSMiB()
	m["models.graph_builds_per_op"] = float64(builds1-builds0) / ops
	m["exp.plan_cache_hit_frac"] = frac(float64(planHits1-planHits0), float64(planHits1+planMisses1-planHits0-planMisses0))
	t := p.steps
	m["exp.execute_ms"] = quantile(p.exec, 0.5)
	m["exp.simulated_steps_per_op"] = float64(t.simulated) / ops
	m["exp.extrapolated_frac"] = frac(float64(t.extrapolated), float64(t.measured))
	m["exp.steady_hit_frac"] = frac(float64(t.hits), float64(t.runs))
	m["exp.cpu_ns_per_simulated_step"] = frac(float64(p.cpu.Nanoseconds()), float64(t.simulated))

	if traced {
		runtime.GC()
		tp, err := profiledPhase(w, measured, s.window, tr, ms(p.cpu)/ops, s.tolerance, m, log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		attempted += tp.ops
		failed += tp.failed
		if err := writeSpans(tr, filepath.Join(outdir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))); err != nil {
			return nil, err
		}
	}

	checked, errs := w.check()
	attempted += checked
	failed += len(errs)
	for _, err := range errs {
		fmt.Fprintf(log, "%s: answer check: %v\n", name, err)
	}
	m["ok_frac"] = 1 - float64(failed)/float64(attempted)
	report(log, name, seed, p, m)

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics, err := selectMetrics(defs, m)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// profiledPhase runs the workload for d under the CPU profiler, with
// every benchmark call into a layer labeled and spanned by tr, and adds
// to m the per-package CPU rows, the phase's own CPU per operation and
// the profiler's overhead: that minus untracedMs, the untraced phase's
// CPU per operation. Both are whole-phase means. It fails when the
// rows do not sum to the phase's CPU per operation within tolerance.
func profiledPhase(w workload, d, win time.Duration, tr *tracer, untracedMs, tolerance float64, m map[string]float64, log io.Writer) (*phase, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	p := runPhase(w, d, win, tr)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}

	rows := make(map[string]bool, len(cpuRows))
	for _, r := range cpuRows {
		rows[r] = true
	}
	byRow := make(map[string]int64)
	byLabel := make(map[string]int64)
	var total int64
	for _, s := range samples {
		byRow[rowOf(s.stack, rows)] += s.cpuNs
		byLabel[s.labels["call"]] += s.cpuNs
		total += s.cpuNs
	}
	ops := float64(p.ops)
	usPerOp := func(ns int64) float64 { return float64(ns) / 1e3 / ops }
	for _, r := range cpuRows {
		m[r+".cpu_us_per_op"] = usPerOp(byRow[r])
	}
	cpuMs := ms(p.cpu) / ops
	m["profiler.cpu_ms_per_op"] = cpuMs
	m["profiler.overhead_ms_per_op"] = cpuMs - untracedMs

	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Fprintf(log, "profile: %d samples; CPU by labeled call (µs/op):", len(samples))
	for _, l := range labels {
		name := l
		if name == "" {
			name = "(unlabeled)"
		}
		fmt.Fprintf(log, " %s=%.1f", name, usPerOp(byLabel[l]))
	}
	fmt.Fprintln(log)

	rowsMs := usPerOp(total) / 1e3
	fmt.Fprintf(log, "profile: rows sum to %.4f ms/op, phase CPU %.4f ms/op\n", rowsMs, cpuMs)
	if gap := math.Abs(rowsMs-cpuMs) / cpuMs; gap > tolerance {
		return nil, fmt.Errorf("per-package CPU rows sum to %.4f ms/op but the phase used %.4f ms/op (gap %.1f%%, tolerance %.0f%%)",
			rowsMs, cpuMs, 100*gap, 100*tolerance)
	}
	return p, nil
}

// writeSpans writes the tracer's wall-clock spans as Chrome trace-event
// JSON (load it in Perfetto or chrome://tracing).
func writeSpans(tr *tracer, path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	var events []event
	for _, s := range tr.spans {
		events = append(events, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// setupChildren sets the workload up in n fresh child processes, one
// after another, and returns their setup times.
func setupChildren(name string, seed uint64, n int) ([]time.Duration, error) {
	if n <= 0 {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for range n {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		blob, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(string(blob)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup child printed %q: %w", blob, err)
		}
		out = append(out, time.Duration(secs*float64(time.Second)))
	}
	return out, nil
}

// setupOnce is a setup child's whole job.
func setupOnce(name string, seed uint64) (time.Duration, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return 0, err
	}
	defer w.close()
	t0 := time.Now()
	if _, err := w.setup(nil); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// report prints every measured metric, with its unit, to log.
func report(log io.Writer, name string, seed uint64, p *phase, m map[string]float64) {
	fmt.Fprintf(log, "%s seed %d: %d operations in %.2fs, GOMAXPROCS %d\n",
		name, seed, p.ops, p.wall.Seconds(), runtime.GOMAXPROCS(0))
	var rates []float64
	for _, w := range p.windows {
		rates = append(rates, float64(w.ops)/w.wall.Seconds())
	}
	fmt.Fprintf(log, "  %d windows, ops/s min %.1f p25 %.1f p50 %.1f p75 %.1f max %.1f\n", len(rates),
		quantileOf(rates, 0), quantileOf(rates, 0.25), quantileOf(rates, 0.5), quantileOf(rates, 0.75), quantileOf(rates, 1))
	for c, lat := range p.byClass {
		if len(lat) > 0 {
			fmt.Fprintf(log, "  class %d: %d ops, latency p50 %.3f p90 %.3f p99 %.3f max %.3f ms\n",
				c, len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 1))
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.name]; ok {
				fmt.Fprintf(log, "  %-34s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
}
