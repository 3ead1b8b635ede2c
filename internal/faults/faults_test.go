package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParsePlanRoundTrip: ParsePlan(String(ParsePlan(s))) is the
// identity on plan values — the CLI syntax and the struct form carry
// the same information.
func TestParsePlanRoundTrip(t *testing.T) {
	for _, s := range []string{
		"death@30s:node0:dev1",
		"death@30s:node0",
		"death@wear0.8:node3:dev2",
		"degrade@10s:node1:0.5:20s",
		"degrade@10s:node1:0.25",
		"drain@60s:node2:5m",
		"drain@90s:node3",
		"death@30s:node0:dev1,degrade@1m:node1:0.5:30s,drain@2m:node2:5m,ckpt=25,penalty=10s,steal=0.4,rebuild=8m",
	} {
		p1, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		p2, err := ParsePlan(p1.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q → %q): %v", s, p1.String(), err)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Errorf("round trip of %q lost information:\n  first  %+v\n  second %+v", s, p1, p2)
		}
	}
}

// TestParsePlanRejects: malformed syntax fails at parse time with an
// error naming the problem, never a silent partial plan.
func TestParsePlanRejects(t *testing.T) {
	for _, s := range []string{
		"frob@10s:node0",
		"death@banana:node0",
		"death@10s",
		"degrade@10s:node0",
		"drain@10s:dev1",
		"ckpt=0",
		"penalty=-5s",
		"steal=2",
		"rebuild=0s",
		"mystery=1",
		"death@wearNaN:node0",
		"degrade@10s:node0:NaN",
		"death@30s:node0:dev1,steal=NaN",
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted a malformed plan", s)
		}
	}
}

// TestParseSpec: the single-run syntax covers each trigger and the
// rebuild options, defaults the whole-array death, and rejects plans
// that only make sense fleet-side.
func TestParseSpec(t *testing.T) {
	got, err := ParseSpec("death@30s:dev1,degrade@10s:0.5:20s,steal=0.4,rebuild=8m")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		DeviceDeathAt: 30 * time.Second, Device: 1,
		DegradeAt: 10 * time.Second, DegradeFactor: 0.5, DegradeFor: 20 * time.Second,
		RebuildSteal: 0.4, RebuildFor: 8 * time.Minute,
	}
	if got != want {
		t.Errorf("ParseSpec = %+v, want %+v", got, want)
	}
	if got, _ := ParseSpec("death@30s"); got.Device != -1 {
		t.Errorf("death without dev = device %d, want whole array (-1)", got.Device)
	}
	if got, _ := ParseSpec("death@wear0.8:dev2"); got.WearThreshold != 0.8 || got.Device != 2 {
		t.Errorf("wear death = %+v", got)
	}
	if got, err := ParseSpec(""); err != nil || !got.Empty() {
		t.Errorf("empty spec: %+v, %v", got, err)
	}
	for _, s := range []string{
		"drain@10s",            // fleet-only kind
		"death@30s,death@40s",  // one death per run
		"degrade@1s:2",         // factor outside (0,1)
		"death@0s:dev1",        // zero time
		"degrade@1s:0.5:0s",    // zero window
		"steal=1",              // steal outside (0,1)
		"death@30s:node0:dev1", // plan syntax, not spec syntax
		"death@wearNaN",        // NaN compares false both ways
		"degrade@1s:NaN",
		"death@30s,steal=NaN",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", s)
		}
	}
}

// TestPlanValidateBounds: events must land on real nodes and devices.
func TestPlanValidateBounds(t *testing.T) {
	plan := Plan{Events: []Event{{Kind: Death, At: time.Second, Node: 5, Device: 0}}}
	if err := plan.Validate(4, 8); err == nil || !strings.Contains(err.Error(), "node") {
		t.Errorf("out-of-range node: got %v", err)
	}
	plan = Plan{Events: []Event{{Kind: Death, At: time.Second, Node: 0, Device: 8}}}
	if err := plan.Validate(4, 8); err == nil || !strings.Contains(err.Error(), "device") {
		t.Errorf("out-of-range device: got %v", err)
	}
	plan = Plan{Events: []Event{{Kind: Death, At: time.Second, Node: 3, Device: -1}}}
	if err := plan.Validate(4, 8); err != nil {
		t.Errorf("whole-array death on the last node rejected: %v", err)
	}
	for _, e := range []Event{
		{Kind: Death, Node: 0, Device: -1, WearThreshold: math.NaN()},
		{Kind: Degrade, At: time.Second, Node: 0, Factor: math.NaN()},
	} {
		if err := (Plan{Events: []Event{e}}).Validate(4, 8); err == nil {
			t.Errorf("NaN event %+v accepted", e)
		}
	}
	if got := (Plan{RebuildSteal: math.NaN()}).WithDefaults().RebuildSteal; got != DefaultRebuildSteal {
		t.Errorf("NaN steal defaults to %v, want %v", got, DefaultRebuildSteal)
	}
}

// TestSpecValidate: the single-run spec rejects each malformed field.
func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{DeviceDeathAt: -time.Second},
		{DeviceDeathAt: time.Second, Device: 8},
		{DeviceDeathAt: time.Second, Device: -2},
		{WearThreshold: 1.5},
		{Device: 3}, // device without a death trigger
		{DeviceDeathAt: time.Second, RebuildSteal: 1},
		{DegradeAt: time.Second},                      // window without a factor
		{DegradeAt: time.Second, DegradeFactor: 1.0},  // factor outside (0,1)
		{DegradeFactor: 0.5},                          // factor without a window
		{DegradeAt: -time.Second, DegradeFactor: 0.5}, // negative window
		{WearThreshold: math.NaN()},
		{DeviceDeathAt: time.Second, Device: 1, WearThreshold: math.NaN()},
		{DeviceDeathAt: time.Second, RebuildSteal: math.NaN()},
		{DegradeAt: time.Second, DegradeFactor: math.NaN()},
		{DegradeFactor: math.NaN()},
	}
	for i, s := range bad {
		if err := s.Validate(8); err == nil {
			t.Errorf("spec %d (%+v) accepted", i, s)
		}
	}
	good := Spec{DeviceDeathAt: time.Second, Device: 1, DegradeAt: 2 * time.Second, DegradeFactor: 0.5}
	if err := good.Validate(8); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if !(Spec{}).Empty() || good.Empty() {
		t.Error("Empty() misclassifies")
	}
}

// TestControllerTimedDeath: a member death thins bandwidth only inside
// the rebuild window, reporting the dead member while it is missing.
func TestControllerTimedDeath(t *testing.T) {
	c := NewController(Spec{DeviceDeathAt: 10 * time.Second, Device: 1}, 8, 0, time.Minute)
	if f := c.Factor(5 * time.Second); f != 1 {
		t.Errorf("pre-death factor %v", f)
	}
	// Computed at runtime in the controller's operation order — spelled
	// as a constant expression Go would fold it exactly and miss the
	// float rounding the real code performs.
	want := float64(7) / float64(8) * (1 - float64(DefaultRebuildSteal))
	if f := c.Factor(15 * time.Second); f != want {
		t.Errorf("rebuild-window factor %v, want %v", f, want)
	}
	if f := c.Factor(70 * time.Second); f != 1 {
		t.Errorf("post-rebuild factor %v", f)
	}
	if d := c.DeadDeviceAt(15 * time.Second); d != 1 {
		t.Errorf("DeadDeviceAt in window = %d", d)
	}
	if d := c.DeadDeviceAt(5 * time.Second); d != -1 {
		t.Errorf("DeadDeviceAt before death = %d", d)
	}
	if c.FailedAt(15 * time.Second) {
		t.Error("member death misreported as whole-array failure")
	}
	at, restored, failed, ok := c.Death()
	if !ok || failed || at != 10*time.Second || restored != 70*time.Second {
		t.Errorf("Death() = %v %v %v %v", at, restored, failed, ok)
	}
}

// TestControllerWholeArrayFailure: Device -1 (or a 1-wide array) fails
// everything from the death time on, with no rebuild recovery.
func TestControllerWholeArrayFailure(t *testing.T) {
	c := NewController(Spec{DeviceDeathAt: 10 * time.Second, Device: -1}, 8, 0, time.Minute)
	if c.FailedAt(5 * time.Second) {
		t.Error("failed before the scheduled death")
	}
	for _, at := range []time.Duration{10 * time.Second, time.Hour} {
		if !c.FailedAt(at) {
			t.Errorf("not failed at %v", at)
		}
	}
	// A single-device array cannot survive any member death.
	c = NewController(Spec{DeviceDeathAt: 10 * time.Second, Device: 0}, 1, 0, time.Minute)
	if !c.FailedAt(10 * time.Second) {
		t.Error("1-wide array survived its only member's death")
	}
}

// TestControllerWearTrigger: the wear death fires at the finish time of
// the write that crosses the threshold, and the earliest registered
// trigger wins.
func TestControllerWearTrigger(t *testing.T) {
	c := NewController(Spec{WearThreshold: 0.5, Device: 2}, 8, 1000, time.Minute)
	c.NoteWrite(400, time.Second)
	if _, _, _, ok := c.Death(); ok {
		t.Fatal("death fired below the wear threshold")
	}
	c.NoteWrite(200, 2*time.Second)
	at, _, _, ok := c.Death()
	if !ok || at != 2*time.Second {
		t.Fatalf("wear death at %v (ok=%v), want 2s", at, ok)
	}

	// Earliest trigger wins: the wear crossing beats a later timed death…
	c = NewController(Spec{DeviceDeathAt: time.Minute, WearThreshold: 0.5, Device: 2}, 8, 1000, time.Minute)
	c.NoteWrite(600, 2*time.Second)
	if at, _, _, _ := c.Death(); at != 2*time.Second {
		t.Errorf("earliest-wins: death at %v, want 2s", at)
	}
	// …and an earlier timed death is kept over a later crossing.
	c = NewController(Spec{DeviceDeathAt: time.Second, WearThreshold: 0.5, Device: 2}, 8, 1000, time.Minute)
	c.NoteWrite(600, 2*time.Second)
	if at, _, _, _ := c.Death(); at != time.Second {
		t.Errorf("earliest-wins: death at %v, want 1s", at)
	}
}

// TestControllerDegradeWindow: the degradation factor applies exactly
// inside [DegradeAt, DegradeAt+DegradeFor) and compounds with a rebuild.
func TestControllerDegradeWindow(t *testing.T) {
	c := NewController(Spec{DegradeAt: 10 * time.Second, DegradeFactor: 0.5, DegradeFor: 20 * time.Second}, 8, 0, time.Minute)
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{9 * time.Second, 1},
		{10 * time.Second, 0.5},
		{29 * time.Second, 0.5},
		{30 * time.Second, 1},
	} {
		if f := c.Factor(tc.at); f != tc.want {
			t.Errorf("Factor(%v) = %v, want %v", tc.at, f, tc.want)
		}
	}
	from, to, ok := c.DegradeWindow()
	if !ok || from != 10*time.Second || to != 30*time.Second {
		t.Errorf("DegradeWindow() = %v %v %v", from, to, ok)
	}

	// DegradeFor 0 holds for the rest of the run.
	c = NewController(Spec{DegradeAt: 10 * time.Second, DegradeFactor: 0.5}, 8, 0, time.Minute)
	if f := c.Factor(time.Hour); f != 0.5 {
		t.Errorf("open-ended window: Factor = %v", f)
	}

	// Overlapping rebuild and degradation multiply.
	c = NewController(Spec{
		DeviceDeathAt: 12 * time.Second, Device: 1,
		DegradeAt: 10 * time.Second, DegradeFactor: 0.5, DegradeFor: 20 * time.Second,
	}, 8, 0, time.Minute)
	rebuild := float64(7) / float64(8) * (1 - float64(DefaultRebuildSteal))
	want := 0.5 * rebuild
	if f := c.Factor(15 * time.Second); f != want {
		t.Errorf("overlap factor %v, want %v", f, want)
	}
}
