package ssd

import (
	"math"
	"time"

	"ssdtrain/internal/units"
)

// secondsPerYear uses the Julian year.
const secondsPerYear = 365.25 * 24 * 3600

// EnduranceModel projects SSD lifespan under an activation-offloading
// workload, implementing §III-D:
//
//	t_life = S_endurance · t_step / S_activations
//
// where S_endurance is the lifetime host-write budget after adjusting the
// JESD rating for (a) the sequential, trim-friendly write pattern of
// activation offloading (WAF ≈ 1 instead of the rating workload's 2.5)
// and (b) relaxed data retention — activations live for one training step,
// not three years, and NAND endures ~86× the PE cycles at 1-day retention
// (§III-D, refs [55]-[58]).
type EnduranceModel struct {
	Spec Spec
	// DrivesPerGPU is how many drives serve one GPU (the paper assumes 4).
	DrivesPerGPU int
	// WorkloadWAF is the write amplification measured or assumed for the
	// offload workload; sequential large writes with whole-file trims give
	// ~1.0 (validated by the FTL model's tests).
	WorkloadWAF float64
	// RetentionFactor multiplies PE-cycle budget for relaxed retention;
	// 86 corresponds to relaxing 3 years → 1 day.
	RetentionFactor float64
}

// DefaultEnduranceModel returns the paper's Fig 5 assumptions: four
// Samsung 980 PRO 1TB per GPU, JESD WAF 2.5 vs workload WAF 1, and
// 1-day retention relaxation.
func DefaultEnduranceModel() EnduranceModel {
	return EnduranceModel{
		Spec:            Samsung980Pro1TB(),
		DrivesPerGPU:    4,
		WorkloadWAF:     1.0,
		RetentionFactor: 86,
	}
}

// HostWriteBudget returns S_endurance in float64 bytes. The float form
// exists because the budget can exceed units.Bytes' int64 range — the
// P5800X's 292 PB rating × 86 retention relaxation × 4 drives is ~1e20 —
// and consumers doing ratio arithmetic (wear fractions, trigger
// thresholds, lifespan projections) must not lose the true magnitude to
// integer truncation.
func (m EnduranceModel) HostWriteBudget() float64 {
	if m.WorkloadWAF <= 0 {
		panic("ssd: workload WAF must be positive")
	}
	perDrive := float64(m.Spec.RatedTBW)
	// The rating's media-write budget is RatedTBW × JESDWAF; our workload
	// turns that budget into RatedTBW × JESDWAF / WorkloadWAF host writes.
	perDrive *= m.Spec.JESDWAF / m.WorkloadWAF
	// Retention relaxation multiplies the PE budget itself.
	if m.RetentionFactor > 0 {
		perDrive *= m.RetentionFactor
	}
	return perDrive * float64(m.DrivesPerGPU)
}

// LifetimeHostWrites returns S_endurance: the host-write budget per GPU
// under the workload assumptions, saturated at the units.Bytes ceiling
// (conversion of an over-range budget used to overflow to a negative
// value, silently disabling wear-triggered faults for Optane-class
// geometries).
func (m EnduranceModel) LifetimeHostWrites() units.Bytes {
	f := m.HostWriteBudget()
	if f >= math.MaxInt64 {
		return units.Bytes(math.MaxInt64)
	}
	return units.Bytes(f)
}

// Lifespan projects drive lifetime given per-step activation volume and
// step time (the paper's t_life formula).
func (m EnduranceModel) Lifespan(activationsPerStep units.Bytes, stepTime time.Duration) time.Duration {
	if activationsPerStep <= 0 {
		// No writes: drives last indefinitely; report a century to keep
		// arithmetic finite.
		return time.Duration(100 * secondsPerYear * float64(time.Second))
	}
	steps := m.HostWriteBudget() / float64(activationsPerStep)
	return time.Duration(steps * float64(stepTime))
}

// LifespanYears is Lifespan expressed in years, the Fig 5 unit.
func (m EnduranceModel) LifespanYears(activationsPerStep units.Bytes, stepTime time.Duration) float64 {
	return m.Lifespan(activationsPerStep, stepTime).Seconds() / secondsPerYear
}

// RequiredWriteBandwidth returns the per-GPU PCIe write bandwidth needed
// to drain one step's activations within half the step time (§III-D: "the
// total amount of activations divided by half the training time" — the
// forward half produces them all).
func RequiredWriteBandwidth(activationsPerStep units.Bytes, stepTime time.Duration) units.Bandwidth {
	if stepTime <= 0 {
		return 0
	}
	half := stepTime / 2
	return units.BandwidthOf(activationsPerStep, half)
}
