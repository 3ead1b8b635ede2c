package ssd

import (
	"math"
	"testing"
	"time"

	"ssdtrain/internal/units"
)

func TestArrayWearProjection(t *testing.T) {
	w := NewArrayWear(Samsung980Pro1TB(), 8)
	if w.Model.DrivesPerGPU != 8 {
		t.Fatalf("drives = %d, want 8", w.Model.DrivesPerGPU)
	}
	// Write 1% of the budget over one hour: projected life is 100 hours.
	budget := float64(w.Model.LifetimeHostWrites())
	w.Record(budget / 100)
	w.Extend(time.Hour)
	if got := w.WearFraction(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("wear fraction = %v, want 0.01", got)
	}
	wantYears := (100 * time.Hour).Seconds() / secondsPerYear
	if got := w.ProjectedYears(); math.Abs(got-wantYears) > 1e-9 {
		t.Errorf("projected years = %v, want %v", got, wantYears)
	}
	if got, want := w.MeanWriteBandwidth(), units.Bandwidth(budget/100/3600); math.Abs(float64(got-want)) > 1 {
		t.Errorf("mean write bandwidth = %v, want %v", got, want)
	}
}

func TestArrayWearIdleAndCaps(t *testing.T) {
	w := NewArrayWear(Samsung980Pro1TB(), 4)
	w.Extend(time.Hour)
	if got := w.ProjectedYears(); got != 100 {
		t.Errorf("idle array projects %v years, want the 100-year cap", got)
	}
	w.Record(-5) // negative writes are ignored
	if w.Written() != 0 {
		t.Errorf("negative record changed the ledger: %v", w.Written())
	}
	// A vanishing write pressure caps at a century instead of overflowing
	// time.Duration.
	w.Record(1)
	if got := w.ProjectedYears(); got != 100 {
		t.Errorf("near-idle array projects %v years, want cap", got)
	}
	// The window never shrinks.
	w.Extend(time.Minute)
	if w.Span() != time.Hour {
		t.Errorf("span shrank to %v", w.Span())
	}
}

func TestArrayWearMoreTenantsLessLife(t *testing.T) {
	solo := NewArrayWear(Samsung980Pro1TB(), 8)
	crowd := NewArrayWear(Samsung980Pro1TB(), 8)
	solo.Record(1e12)
	crowd.Record(4e12)
	solo.Extend(time.Hour)
	crowd.Extend(time.Hour)
	if crowd.ProjectedYears() >= solo.ProjectedYears() {
		t.Errorf("4× write pressure did not shorten life: %v vs %v",
			crowd.ProjectedYears(), solo.ProjectedYears())
	}
}
