package main

import (
	"fmt"

	"ssdtrain/internal/core"
	"ssdtrain/internal/exp"
	"ssdtrain/internal/spans"
	"ssdtrain/internal/units"
)

// modelMetrics adds the modeled training step of the workload's
// reference config to m: its simulated step time, step-time overhead and
// activation-peak saving against no-offload, and the flight recorder's
// attribution of the step. All of it is simulated and deterministic, so
// a change that only speeds up the simulator must leave it bit-identical.
//
// Nothing here reads sim.GlobalStats: no simulation code schedules
// events on sim.Engine (all timing goes through sim.Server), so its
// event counters always read 0 and no event-count metric is derived
// from them.
func modelMetrics(ref exp.RunConfig, tr *tracer, m map[string]float64) error {
	type traced struct {
		res *exp.RunResult
		tr  *spans.Trace
	}
	t, err := call(tr, "exp.TraceOf", func() (traced, error) {
		res, trace, err := exp.TraceOf(ref)
		return traced{res, trace}, err
	})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	base := exp.Spec{
		Model:   ref.Model,
		Offload: exp.OffloadSpec{Strategy: exp.NoOffload},
		Run:     exp.RunSpec{Steps: ref.Steps, Warmup: ref.Warmup},
	}
	b, err := call(tr, "exp.Run", base.Measure)
	if err != nil {
		return fmt.Errorf("no-offload baseline: %w", err)
	}

	res := t.res
	m["model.step_ms"] = ms(res.StepTime())
	m["model.overhead_pct"] = 100 * (float64(res.StepTime())/float64(b.StepTime()) - 1)
	m["model.act_saving_pct"] = 100 * (1 - float64(res.Measured.ActPeak)/float64(b.Measured.ActPeak))
	m["model.stall_ms"] = ms(res.Measured.Stats.ComputeStall)

	a := t.tr.Attribution()
	horizon := float64(a.Horizon)
	m["model.compute_busy_pct"] = 100 * frac(float64(a.ComputeBusy), horizon)
	m["model.io_busy_pct"] = 100 * frac(float64(a.IOBusy), horizon)
	m["model.io_hidden_pct"] = 100 * a.OverlapFrac()

	var written, read units.Bytes
	for _, tier := range res.Tiers {
		if tier.Kind == core.TierDRAM || tier.Kind == core.TierNVMe {
			written += tier.Written
			read += tier.Read
		}
	}
	steps := float64(res.Config.Warmup + res.Config.Steps)
	m["core.offload_mib_per_step"] = float64(written) / float64(units.MiB) / steps
	m["core.reload_mib_per_step"] = float64(read) / float64(units.MiB) / steps
	return nil
}
