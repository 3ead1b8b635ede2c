package ssd

import (
	"time"

	"ssdtrain/internal/units"
)

// ArrayWear accumulates host writes against a shared drive array's
// endurance budget — the multi-tenant extension of the §III-D model. The
// paper's t_life formula assumes one training job owns its drives; in a
// fleet, several co-located jobs write to one node-level array, so
// lifespan must be projected from the aggregate write pressure the array
// actually observed over a measurement window. EnduranceModel's
// DrivesPerGPU field is reused as drives-per-array here: the model only
// cares how many drives back one write budget.
type ArrayWear struct {
	Model EnduranceModel
	// written accumulates fractional bytes: fleet simulations accrue
	// writes as rate × dt, which is not generally whole bytes.
	written float64
	span    time.Duration
}

// NewArrayWear builds a wear ledger for a node-level array of the given
// drives, keeping the paper's workload assumptions (sequential offload
// pattern, WAF 1, 1-day retention relaxation).
func NewArrayWear(spec Spec, drives int) *ArrayWear {
	m := DefaultEnduranceModel()
	m.Spec = spec
	m.DrivesPerGPU = drives
	return &ArrayWear{Model: m}
}

// Record adds host writes to the ledger.
func (w *ArrayWear) Record(bytes float64) {
	if bytes > 0 {
		w.written += bytes
	}
}

// Extend grows the observation window to cover the given instant; the
// window never shrinks.
func (w *ArrayWear) Extend(to time.Duration) {
	if to > w.span {
		w.span = to
	}
}

// Written returns the accumulated host writes.
func (w *ArrayWear) Written() units.Bytes { return units.Bytes(w.written) }

// Span returns the observation window.
func (w *ArrayWear) Span() time.Duration { return w.span }

// WearFraction returns the share of the array's lifetime write budget the
// observed writes consumed.
func (w *ArrayWear) WearFraction() float64 {
	budget := w.Model.HostWriteBudget()
	if budget <= 0 {
		return 0
	}
	return w.written / budget
}

// MeanWriteBandwidth returns the average write pressure over the window.
func (w *ArrayWear) MeanWriteBandwidth() units.Bandwidth {
	if w.span <= 0 {
		return 0
	}
	return units.Bandwidth(w.written / w.span.Seconds())
}

// ProjectedYears extrapolates the window's write pressure to the array's
// end of life, in years (the Fig 5 unit). An idle array reports a
// century, matching EnduranceModel.Lifespan's convention.
func (w *ArrayWear) ProjectedYears() float64 {
	f := w.WearFraction()
	if f <= 0 || w.span <= 0 {
		return 100
	}
	years := w.span.Seconds() / f / secondsPerYear
	if years > 100 {
		return 100
	}
	return years
}
