package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's whole output surface: an untraced run
// reports every endToEnd metric, a traced run every perLayer metric,
// and BENCHMARK.json declares the same names and units.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees. Host time
// unless the unit says sim_ms (simulated, deterministic).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kib_per_op", "KiB"},
	{"heap_live_mib", "MiB"},
	{"max_rss_mib", "MiB"},
	// ok_frac is 1 - error_frac: operations that completed with a
	// checked answer over operations attempted. Any failure also fails
	// the command.
	{"ok_frac", "frac"},
	{"model.step_ms", "sim_ms"},
	{"model.overhead_pct", "%"},
	{"model.act_saving_pct", "%"},
}

// cpuRows are the per-package rows of the traced run's CPU attribution,
// in report order.
var cpuRows = []string{
	"autograd", "core", "gpu", "sim", "tensor", "trace", "exp",
	"models", "serve", "lru", "spans", "ssd", "pcie", "gds",
	"units", "http", "json", "gc", "other",
}

// perLayer are the metrics of single layers, reported by a traced run.
// A metric whose layer a workload does not exercise reads 0. lat_p99_ms
// is end to end but carries no bound: on a shared host it measures the
// host's preemptions more than the program (see NOTES.md).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"lat_p99_ms", "ms"},
		{"exp.execute_ms", "ms"},
		{"exp.simulated_steps_per_op", "count"},
		{"exp.extrapolated_frac", "frac"},
		{"exp.steady_hit_frac", "frac"},
		{"exp.cpu_ns_per_simulated_step", "ns"},
		{"exp.compile_ms", "ms"},
		{"exp.plan_cache_hit_frac", "frac"},
		{"models.graph_builds_per_op", "count"},
		{"serve.hit_p50_ms", "ms"},
		{"serve.miss_p50_ms", "ms"},
		{"serve.new_shape_p50_ms", "ms"},
		{"serve.result_cache_hit_frac", "frac"},
		{"serve.coalesced_frac", "frac"},
		{"serve.session_hit_frac", "frac"},
		{"serve.batch_mean_size", "count"},
		{"serve.rejected_frac", "frac"},
	}
	for _, row := range cpuRows {
		defs = append(defs, metricDef{row + ".cpu_us_per_op", "us"})
	}
	return append(defs,
		metricDef{"profiler.cpu_ms_per_op", "ms"},
		metricDef{"profiler.overhead_ms_per_op", "ms"},
		metricDef{"model.compute_busy_pct", "%"},
		metricDef{"model.io_busy_pct", "%"},
		metricDef{"model.io_hidden_pct", "%"},
		metricDef{"model.stall_ms", "sim_ms"},
		metricDef{"core.offload_mib_per_step", "MiB"},
		metricDef{"core.reload_mib_per_step", "MiB"},
	)
}()

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// selectMetrics picks the defs' values out of all, failing on any metric that
// is missing or not finite.
func selectMetrics(defs []metricDef, all map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := all[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
