package fleet

import (
	"fmt"
	"math/rand"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// MixConfig parameterizes the seeded heterogeneous job generator.
type MixConfig struct {
	Jobs int
	Seed int64
	// MinSteps/MaxSteps bound the training length drawn per job
	// (defaults 40/400).
	MinSteps int
	MaxSteps int
	// SubmitSpread staggers arrivals uniformly over [0, SubmitSpread];
	// zero submits everything at time zero (a full backlog, which is
	// where scheduling policies differ most).
	SubmitSpread time.Duration
	// MaxGPUs caps job footprints so every job fits the target node
	// (default 4, the default node's size).
	MaxGPUs int
	// HybridFrac converts roughly this fraction of the SSDTrain jobs to
	// dram-first hybrid tenants that contend for node DRAM as well as the
	// array. It draws from its own generator, so HybridFrac 0 reproduces
	// pre-hierarchy mixes byte for byte.
	HybridFrac float64
	// OptimFrac converts roughly this fraction of the SSDTrain jobs to
	// optimizer-offload tenants (half sync, half overlap): their FP32
	// states spill to the shared array and their gradient/parameter
	// shuttle adds steady write traffic to the wear ledger. Like
	// HybridFrac it draws from its own generator, so OptimFrac 0 keeps
	// existing mixes byte-identical.
	OptimFrac float64
	// FaultPlan rides along with the mix parameters so call sites that
	// build a mix can thread a fault schedule to the simulation in one
	// value (Config.Faults / PolicySweepConfig.Faults apply it).
	// DefaultJobMix itself never reads it: the same seed draws the same
	// jobs with or without faults.
	FaultPlan faults.Plan
}

func (c MixConfig) withDefaults() MixConfig {
	if c.Jobs == 0 {
		c.Jobs = 64
	}
	if c.Jobs < 0 {
		// A negative count is a caller bug; an empty mix lets Simulate
		// report it instead of panicking in make.
		c.Jobs = 0
	}
	if c.MinSteps == 0 {
		c.MinSteps = 40
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 400
	}
	if c.MaxSteps < c.MinSteps {
		c.MaxSteps = c.MinSteps
	}
	if c.MaxGPUs <= 0 {
		c.MaxGPUs = 4
	}
	return c
}

// fullOffload pins the budget far above any eligible set, forcing every
// activation to the array (the memory-constrained job class).
const fullOffload = units.Bytes(1) << 62

// DefaultJobMix draws a heterogeneous job mix from a fixed palette with a
// seeded generator: mixed architectures (BERT/T5/GPT), geometries (the
// Fig 6 points), batch sizes, placement strategies, GPU footprints,
// training lengths and (optionally) arrival times. The same seed always
// produces the same mix — math/rand's sequence for an explicit source is
// stable — which is what makes fleet reports reproducible end to end.
//
// The strategy mix is deliberately adversarial for a shared array:
// planner-driven SSDTrain jobs (offload less under contention, raising
// their memory peak), memory-constrained pinned-budget jobs (keep
// offloading and dilate), and a minority of no-offload/recompute jobs
// that occupy GPUs without touching the array.
func DefaultJobMix(cfg MixConfig) []Job {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	archs := []models.Arch{models.BERT, models.T5, models.GPT}
	geoms := models.Fig6Geometries()
	batches := []int{8, 16}
	jobs := make([]Job, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		arch := archs[rng.Intn(len(archs))]
		geom := geoms[rng.Intn(len(geoms))]
		batch := batches[rng.Intn(len(batches))]
		model := models.PaperConfig(arch, geom[0], geom[1], batch)

		run := exp.Spec{Model: model, Offload: exp.OffloadSpec{Strategy: exp.SSDTrain}}
		class := "plan"
		switch p := rng.Float64(); {
		case p < 0.55:
			// Planner-driven SSDTrain (the framework's default posture).
		case p < 0.70:
			// Memory-constrained: offload everything, forwarding on.
			run.Offload.Budget = fullOffload
			class = "pin"
		case p < 0.80:
			// Memory-constrained without forwarding: reloads serialize
			// behind the array, so contention dilates step time hard.
			run.Offload.Budget = fullOffload
			run.Offload.NoForwarding = true
			run.Offload.KeepLastModules = -1
			class = "pin-nofwd"
		case p < 0.90:
			run.Offload.Strategy = exp.NoOffload
			class = "keep"
		default:
			run.Offload.Strategy = exp.Recompute
			class = "recompute"
		}

		gpus := []int{1, 1, 2, 4}[rng.Intn(4)]
		if gpus > cfg.MaxGPUs {
			gpus = cfg.MaxGPUs
		}
		steps := cfg.MinSteps + rng.Intn(cfg.MaxSteps-cfg.MinSteps+1)
		var submit time.Duration
		if cfg.SubmitSpread > 0 {
			submit = time.Duration(rng.Int63n(int64(cfg.SubmitSpread)))
		}
		jobs = append(jobs, Job{
			ID:     i,
			Name:   fmt.Sprintf("%s-H%d-B%d-%s", arch, geom[0], batch, class),
			Run:    run,
			GPUs:   gpus,
			Steps:  steps,
			Submit: submit,
		})
	}
	if cfg.HybridFrac > 0 {
		// A second seeded generator leaves the base mix's draw sequence
		// untouched: the same seed with HybridFrac 0 stays byte-identical.
		hrng := rand.New(rand.NewSource(cfg.Seed ^ 0x7a1e5))
		pools := []units.Bytes{16 * units.GiB, 32 * units.GiB, 64 * units.GiB}
		for i := range jobs {
			j := &jobs[i]
			if j.Run.Offload.Strategy != exp.SSDTrain || hrng.Float64() >= cfg.HybridFrac {
				continue
			}
			j.Run.Offload.Strategy = exp.HybridOffload
			j.Run.Offload.Placement = exp.PlacementDRAMFirst
			j.Run.Offload.DRAMCapacity = pools[hrng.Intn(len(pools))]
			j.Name += "+dram"
		}
	}
	if cfg.OptimFrac > 0 {
		// Same isolation trick as HybridFrac: a third generator, so the
		// base mix (and any hybrid conversions) stay byte-identical.
		orng := rand.New(rand.NewSource(cfg.Seed ^ 0x0b71a11))
		pools := []units.Bytes{8 * units.GiB, 16 * units.GiB, 32 * units.GiB}
		for i := range jobs {
			j := &jobs[i]
			if j.Run.Offload.Strategy != exp.SSDTrain || orng.Float64() >= cfg.OptimFrac {
				continue
			}
			j.Run.Offload = exp.OffloadSpec{DRAMCapacity: pools[orng.Intn(len(pools))]}
			j.Run.Optimizer = exp.OptimizerSpec{Offload: true, Schedule: exp.ScheduleSync}
			if orng.Float64() < 0.5 {
				j.Run.Optimizer.Schedule = exp.ScheduleOverlap
			}
			j.Name += "+optim-" + j.Run.Optimizer.Schedule
		}
	}
	return jobs
}
