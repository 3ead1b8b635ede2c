// Package faults implements deterministic fault injection for the
// simulated offload stack: scheduled device death, wear-triggered death,
// transient bandwidth degradation, and (at the fleet level) node drain.
//
// Faults are modeled as piecewise-constant functions of virtual time.
// Every transfer's times are computed algebraically when it is submitted
// — nothing in the simulator runs as a scheduled callback — so fault
// effects are consulted at each transfer's computed start time through a
// pure time-query Controller. That keeps traced/untraced
// and fresh/session runs byte-identical by construction: the same
// transfer sequence asks the same questions and gets the same answers.
package faults

import (
	"fmt"
	"time"
)

// Spec schedules faults against one simulated NVMe array. It is a pure
// scalar value struct so it can ride inside exp.RunConfig, which is
// compared with == and used as an LRU key. The zero Spec means "no
// faults" and is what every existing caller implicitly passes.
type Spec struct {
	// DeviceDeathAt kills array member Device at this simulated time
	// (0 = no scheduled death).
	DeviceDeathAt time.Duration
	// Device selects which array member dies (0-based). -1 kills the
	// whole array at once.
	Device int
	// WearThreshold triggers the death when the array's host-write wear
	// fraction crosses this value (0 = no wear trigger). When both
	// triggers are set, the earlier one fires.
	WearThreshold float64
	// DegradeAt starts a transient bandwidth degradation window
	// (0 = none).
	DegradeAt time.Duration
	// DegradeFactor multiplies effective array bandwidth inside the
	// window; must be in (0, 1) when a window is scheduled.
	DegradeFactor float64
	// DegradeFor is the window length; 0 with DegradeAt set means the
	// degradation lasts for the rest of the run.
	DegradeFor time.Duration
	// RebuildFor is how long the RAID rebuild holds after a member
	// death (0 = derived from device capacity at the steal rate).
	RebuildFor time.Duration
	// RebuildSteal is the fraction of surviving bandwidth the rebuild
	// steals from foreground transfers, in [0, 1). 0 = DefaultRebuildSteal.
	RebuildSteal float64
}

// DefaultRebuildSteal is the rebuild bandwidth steal applied when a spec
// schedules a death without choosing one.
const DefaultRebuildSteal = 0.3

// Empty reports whether the spec schedules nothing — the fault-free case
// every pre-existing run config is in.
func (s Spec) Empty() bool { return s == Spec{} }

// Validate rejects malformed specs against an array of the given width.
func (s Spec) Validate(devices int) error {
	if s.Empty() {
		return nil
	}
	death := s.DeviceDeathAt > 0 || s.WearThreshold > 0
	// Each range test reads !(inside), so a NaN, which compares false
	// with everything, lands outside; the parsers follow the same rule.
	switch {
	case s.DeviceDeathAt < 0:
		return fmt.Errorf("faults: negative DeviceDeathAt %v", s.DeviceDeathAt)
	case !(s.WearThreshold >= 0 && s.WearThreshold <= 1):
		return fmt.Errorf("faults: WearThreshold %.3f outside [0, 1]", s.WearThreshold)
	case death && (s.Device < -1 || s.Device >= devices):
		return fmt.Errorf("faults: device %d outside array of %d", s.Device, devices)
	case !death && s.Device != 0:
		return fmt.Errorf("faults: Device set without a death trigger")
	case !(s.RebuildSteal >= 0 && s.RebuildSteal < 1):
		return fmt.Errorf("faults: RebuildSteal %.3f outside [0, 1)", s.RebuildSteal)
	case s.RebuildFor < 0:
		return fmt.Errorf("faults: negative RebuildFor %v", s.RebuildFor)
	case s.DegradeAt < 0 || s.DegradeFor < 0:
		return fmt.Errorf("faults: negative degrade window")
	case s.DegradeAt > 0 && !(s.DegradeFactor > 0 && s.DegradeFactor < 1):
		return fmt.Errorf("faults: DegradeFactor %.3f outside (0, 1)", s.DegradeFactor)
	case s.DegradeAt == 0 && (s.DegradeFactor != 0 || s.DegradeFor != 0):
		return fmt.Errorf("faults: degrade window fields set without DegradeAt")
	}
	return nil
}

// noDeath marks "no death registered" in the controller.
const noDeath = time.Duration(-1)

// Controller answers fault queries for one run. It is built fresh per
// Execute (cheap: a few scalars) and mutates only through NoteWrite,
// whose call sequence is itself deterministic, so armed runs stay
// byte-identical across fresh and reused arenas.
type Controller struct {
	spec       Spec
	devices    int
	wearBudget float64 // host-write lifetime of the whole array, bytes
	written    float64
	steal      float64
	rebuildFor time.Duration

	deathAt    time.Duration // noDeath until a trigger fires
	deadDev    int
	restoredAt time.Duration
	failed     bool // whole-array failure (Device -1 or 1-wide array)
}

// NewController arms a controller for an array of the given width.
// wearBudget is the array's lifetime host-write budget in bytes (0
// disables the wear trigger); rebuildDefault is used when the spec does
// not pin RebuildFor. It returns a value, so an owner that re-arms every
// run can rebuild its controller in place.
func NewController(spec Spec, devices int, wearBudget float64, rebuildDefault time.Duration) Controller {
	c := Controller{
		spec:       spec,
		devices:    devices,
		wearBudget: wearBudget,
		steal:      spec.RebuildSteal,
		rebuildFor: spec.RebuildFor,
		deathAt:    noDeath,
	}
	if c.steal == 0 {
		c.steal = DefaultRebuildSteal
	}
	if c.rebuildFor <= 0 {
		c.rebuildFor = rebuildDefault
	}
	if spec.DeviceDeathAt > 0 {
		c.registerDeath(spec.DeviceDeathAt)
	}
	return c
}

// registerDeath records the death trigger, keeping the earliest one.
func (c *Controller) registerDeath(at time.Duration) {
	if c.deathAt != noDeath && c.deathAt <= at {
		return
	}
	c.deathAt = at
	c.deadDev = c.spec.Device
	c.restoredAt = at + c.rebuildFor
	c.failed = c.spec.Device < 0 || c.devices <= 1
}

// NoteWrite accounts host writes against the wear budget and fires the
// wear-triggered death at the crossing write's finish time.
func (c *Controller) NoteWrite(n float64, finish time.Duration) {
	c.written += n
	if c.spec.WearThreshold > 0 && c.wearBudget > 0 &&
		c.written >= c.spec.WearThreshold*c.wearBudget {
		c.registerDeath(finish)
	}
}

// Factor returns the foreground bandwidth multiplier at time t: 1 when
// healthy, degraded inside a rebuild window (surviving members share the
// stripe and the rebuild steals part of their bandwidth) or a scheduled
// degradation window.
func (c *Controller) Factor(t time.Duration) float64 {
	f := 1.0
	if c.spec.DegradeAt > 0 && t >= c.spec.DegradeAt &&
		(c.spec.DegradeFor == 0 || t < c.spec.DegradeAt+c.spec.DegradeFor) {
		f *= c.spec.DegradeFactor
	}
	if c.deathAt != noDeath && !c.failed && t >= c.deathAt && t < c.restoredAt {
		f *= float64(c.devices-1) / float64(c.devices) * (1 - c.steal)
	}
	return f
}

// FailedAt reports whether the whole array is failed at time t — no
// surviving member can absorb the traffic.
func (c *Controller) FailedAt(t time.Duration) bool {
	return c.failed && c.deathAt != noDeath && t >= c.deathAt
}

// DeadDeviceAt returns the index of the array member that is dead and
// not yet rebuilt at time t, or -1.
func (c *Controller) DeadDeviceAt(t time.Duration) int {
	if c.deathAt == noDeath || c.failed || t < c.deathAt || t >= c.restoredAt {
		return -1
	}
	return c.deadDev
}

// Death reports the registered death trigger, if any: when it fired,
// when the rebuild completes, and whether it failed the whole array.
func (c *Controller) Death() (at, restored time.Duration, failed, ok bool) {
	if c.deathAt == noDeath {
		return 0, 0, false, false
	}
	return c.deathAt, c.restoredAt, c.failed, true
}

// DegradeWindow reports the scheduled degradation window, if any.
func (c *Controller) DegradeWindow() (from, to time.Duration, ok bool) {
	if c.spec.DegradeAt <= 0 {
		return 0, 0, false
	}
	to = c.spec.DegradeAt + c.spec.DegradeFor
	if c.spec.DegradeFor == 0 {
		to = 1<<62 - 1
	}
	return c.spec.DegradeAt, to, true
}
