package pcie

import (
	"testing"
	"time"

	"ssdtrain/internal/units"
)

func TestEffectiveBandwidth(t *testing.T) {
	cfg := DefaultGen4x16()
	eff := cfg.Effective()
	// Gen4 x16 ≈ 31.5 GB/s raw; at 0.82 efficiency ≈ 25.8 GB/s.
	if eff < 25*units.GBps || eff > 27*units.GBps {
		t.Errorf("gen4 x16 effective = %v", eff)
	}
	g3 := LinkConfig{Gen: Gen3, Lanes: 16, Efficiency: 0.82}
	g5 := LinkConfig{Gen: Gen5, Lanes: 16, Efficiency: 0.82}
	if g3.Effective() >= eff || g5.Effective() <= eff {
		t.Errorf("generation ordering wrong: g3=%v g4=%v g5=%v", g3.Effective(), eff, g5.Effective())
	}
	// Lane scaling.
	x8 := LinkConfig{Gen: Gen4, Lanes: 8, Efficiency: 0.82}
	ratio := float64(eff) / float64(x8.Effective())
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("x16/x8 = %v", ratio)
	}
}

func TestEffectiveValidation(t *testing.T) {
	for _, bad := range []LinkConfig{
		{Gen: Gen4, Lanes: 0, Efficiency: 0.8},
		{Gen: Gen4, Lanes: 16, Efficiency: 0},
		{Gen: Gen4, Lanes: 16, Efficiency: 1.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", bad)
				}
			}()
			bad.Effective()
		}()
	}
}

func TestLinkDirectionsIndependent(t *testing.T) {
	l := NewLink(nil, "pcie0", DefaultGen4x16())
	// Saturate the down direction; the up direction must be unaffected.
	downFin := l.Down(0, 10*units.GB)
	upFin := l.Up(0, units.GB)
	if upFin >= downFin {
		t.Errorf("duplex broken: up %v, down %v", upFin, downFin)
	}
	if l.DownBusyTime() <= l.UpBusyTime() {
		t.Errorf("busy accounting wrong: down %v up %v", l.DownBusyTime(), l.UpBusyTime())
	}
}

func TestLinkFIFOWithinDirection(t *testing.T) {
	l := NewLink(nil, "pcie0", DefaultGen4x16())
	f1 := l.Down(0, units.GB)
	f2 := l.Down(0, units.GB)
	if f2 <= f1 {
		t.Errorf("second transfer did not queue: %v then %v", f1, f2)
	}
	// The transfer time matches size/bandwidth plus latency.
	want := l.Effective().TimeFor(units.GB) + l.Config().Latency
	if diff := f1 - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("f1 = %v, want ≈ %v", f1, want)
	}
}
