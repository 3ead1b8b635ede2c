package exp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"ssdtrain/internal/core"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/units"
)

// steadyVariants returns one config per strategy × placement — the same
// coverage tracedVariants gives the flight recorder — tagged with whether
// the consecutive-step detector is expected to converge. The split
// placement halves each transfer's stripe count, so the RAID round-robin
// cursor rotates with a period longer than one step and no two
// consecutive steps fold to the same signature: the fast path must
// detect that (the cursor decides which members eat the remainder
// stripes, i.e. per-device wear and busy time) and fall back to full
// simulation rather than extrapolate a misaligned cycle.
func steadyVariants() []struct {
	cfg       RunConfig
	converges bool
} {
	var out []struct {
		cfg       RunConfig
		converges bool
	}
	for _, cfg := range tracedVariants() {
		out = append(out, struct {
			cfg       RunConfig
			converges bool
		}{cfg, cfg.Placement != PlacementSplit})
	}
	return out
}

// requireSteadyIdentical runs cfg twice — fast path on (default) and
// forced full simulation — and fails unless the two RunResults are
// byte-identical in everything but the knob echo and the fast-path
// metadata. It returns the fast run for callers that want to assert on
// the metadata itself.
func requireSteadyIdentical(t *testing.T, cfg RunConfig) *RunResult {
	t.Helper()
	fast, err := Run(cfg)
	if err != nil {
		t.Fatalf("fast run: %v", err)
	}
	slow := cfg
	slow.SteadyState = "off"
	full, err := Run(slow)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if full.SteadyState.Fallback != steadyFallbackOff {
		t.Fatalf("forced-full run reported fallback %q, want %q", full.SteadyState.Fallback, steadyFallbackOff)
	}
	full.Config.SteadyState = fast.Config.SteadyState
	full.SteadyState = fast.SteadyState
	if !reflect.DeepEqual(fast, full) {
		t.Errorf("extrapolated result differs from full simulation (cfg %+v)", cfg)
	}
	return fast
}

// TestSteadyStateByteIdentical is the tentpole's property pin: for every
// strategy × placement × bandwidth share × step count, the extrapolated
// RunResult — per-step metrics, memory report, tier traffic, wear-bearing
// byte counters — is byte-identical to the fully simulated one.
func TestSteadyStateByteIdentical(t *testing.T) {
	for _, v := range steadyVariants() {
		for _, share := range []float64{0, 0.5} {
			for _, steps := range []int{3, 50} {
				cfg := v.cfg
				converges := v.converges
				cfg.SSDBandwidthShare = share
				cfg.Steps = steps
				name := string(cfg.Strategy) + "/" + string(cfg.Placement)
				t.Run(name, func(t *testing.T) {
					fast := requireSteadyIdentical(t, cfg)
					if converges {
						if fast.SteadyState.Fallback != "" {
							t.Errorf("fast path fell back (%q) on a plain run", fast.SteadyState.Fallback)
						}
						if steps == 50 && fast.SteadyState.ExtrapolatedSteps == 0 {
							t.Error("50-step run converged nothing: fast path never extrapolated")
						}
					} else if fast.SteadyState.Fallback != steadyFallbackNoConv {
						t.Errorf("fallback %q, want %q (rotating RAID cursor must block extrapolation)",
							fast.SteadyState.Fallback, steadyFallbackNoConv)
					}
					if got := fast.SteadyState.SimulatedSteps + fast.SteadyState.ExtrapolatedSteps; got != steps {
						t.Errorf("simulated %d + extrapolated %d != %d steps",
							fast.SteadyState.SimulatedSteps, fast.SteadyState.ExtrapolatedSteps, steps)
					}
				})
			}
		}
	}
}

// TestSteadyStateByteIdentical10k extends the property to the 10 000-step
// scale the bench gate measures, on a representative subset (full
// simulation at this length costs ~0.5 s per config).
func TestSteadyStateByteIdentical10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-step full-simulation baselines")
	}
	ssdShare := smallCfg(SSDTrain)
	ssdShare.SSDBandwidthShare = 0.5
	dramFirst := smallCfg(HybridOffload)
	dramFirst.Placement = PlacementDRAMFirst
	dramFirst.DRAMCapacity = 256 * units.MiB
	for _, cfg := range []RunConfig{ssdShare, dramFirst} {
		cfg.Steps = 10000
		fast := requireSteadyIdentical(t, cfg)
		if fast.SteadyState.ExtrapolatedSteps < 9000 {
			t.Errorf("10k-step run extrapolated only %d steps", fast.SteadyState.ExtrapolatedSteps)
		}
	}
}

// TestSteadyStateSessionReuse pins the fast path on recycled arenas: a
// session alternating extrapolated and fully simulated executions keeps
// producing results byte-identical to fresh runs in both modes.
func TestSteadyStateSessionReuse(t *testing.T) {
	cfg := smallCfg(SSDTrain)
	cfg.Steps = 50
	refFast := requireSteadyIdentical(t, cfg)
	slow := cfg
	slow.SteadyState = "off"
	refFull, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(plan)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := sess.Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refFast, got) {
			t.Errorf("round %d: session fast run differs from fresh fast run", round)
		}
		if got, err = sess.Execute(slow); err != nil {
			t.Fatal(err)
		} else if !reflect.DeepEqual(refFull, got) {
			t.Errorf("round %d: session full run differs from fresh full run", round)
		}
	}
}

// TestSteadyStateNeverFiringFaults: an armed fault spec that never fires
// forces full simulation (the extrapolated region cannot be checked
// against triggers that have not happened yet), reported as the "faults"
// fallback — and the result still matches the fault-free fast run.
func TestSteadyStateNeverFiringFaults(t *testing.T) {
	cfg := smallCfg(SSDTrain)
	cfg.Steps = 50
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	armed := cfg
	armed.Faults = neverFiring()
	got, err := Run(armed)
	if err != nil {
		t.Fatal(err)
	}
	if got.SteadyState.Fallback != steadyFallbackFaults {
		t.Errorf("armed run reported fallback %q, want %q", got.SteadyState.Fallback, steadyFallbackFaults)
	}
	if got.SteadyState.ExtrapolatedSteps != 0 {
		t.Errorf("armed run extrapolated %d steps", got.SteadyState.ExtrapolatedSteps)
	}
	got.Config = fast.Config
	got.SteadyState = fast.SteadyState
	if !reflect.DeepEqual(fast, got) {
		t.Error("never-firing schedule perturbed the fast run's outputs")
	}
}

// TestSteadyStateWearDeathInExtrapolatedRegion: a wear-triggered death
// that would land inside the region the fast path extrapolates must not
// be skipped over. The fault spec forces full simulation on both paths,
// so the death fires identically whether or not the knob is on.
func TestSteadyStateWearDeathInExtrapolatedRegion(t *testing.T) {
	base := smallCfg(SSDTrain)
	base.Steps = 50
	healthy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.SteadyState.SimulatedSteps >= base.Steps {
		t.Fatalf("fast path did not converge (%d simulated steps); the test needs an extrapolated region",
			healthy.SteadyState.SimulatedSteps)
	}
	// The extrapolated region starts after the last simulated measured
	// step; a death inside it must surface on the fast path too.
	regionStart := healthy.PerStep[healthy.SteadyState.SimulatedSteps-1].End

	// Calibrate a threshold whose crossing lands inside that region: the
	// wear ledger grows monotonically, so scan thresholds from low to
	// high until the (fully simulated, faults fallback) death time passes
	// regionStart.
	var spec faults.Spec
	var wantAt time.Duration
	for thr := 1e-12; thr < 1; thr *= 2 {
		trial := base
		trial.Faults = faults.Spec{WearThreshold: thr, Device: -1}
		_, err := Run(trial)
		if err == nil {
			break // threshold above the run's total wear: stop scanning
		}
		var dfe *core.DeviceFailedError
		if !errors.As(err, &dfe) {
			t.Fatalf("wear trial: got %v, want *core.DeviceFailedError", err)
		}
		if dfe.At > regionStart {
			spec = trial.Faults
			wantAt = dfe.At
			break
		}
	}
	if spec.Empty() {
		t.Skip("no wear threshold crosses inside the extrapolated region for this geometry")
	}

	armed := base
	armed.Faults = spec
	for _, mode := range []string{"", "off"} {
		armed.SteadyState = mode
		_, err := Run(armed)
		var dfe *core.DeviceFailedError
		if !errors.As(err, &dfe) {
			t.Fatalf("mode %q: got %v, want *core.DeviceFailedError", mode, err)
		}
		if dfe.At != wantAt {
			t.Errorf("mode %q: wear death at %v, want %v", mode, dfe.At, wantAt)
		}
	}
}

// fuzzPreset is a strategy, and for the offloaded optimizer a schedule.
type fuzzPreset struct {
	strategy Strategy
	schedule string
}

// fuzzPresets are the presets FuzzSteadyMatchesFull draws from, the
// offloaded optimizer once per schedule.
var fuzzPresets = []fuzzPreset{
	{NoOffload, ""}, {Recompute, ""}, {SSDTrain, ""}, {CPUOffload, ""}, {HybridOffload, ""},
	{OptimOffload, ScheduleSync}, {OptimOffload, ScheduleOverlap},
}

// fuzzPlacements are the placements a stacked preset draws from; split
// always takes the 0.5 ratio steadyVariants uses.
var fuzzPlacements = []Placement{PlacementDRAMFirst, PlacementSSDOnly, PlacementSplit}

// unitFrac maps a finite float into [0, 1], keeping values already in
// it.
func unitFrac(x float64) float64 {
	if x < 0 || x > 1 {
		return math.Mod(math.Abs(x), 1)
	}
	return x
}

// fuzzSteadyCfg decodes FuzzSteadyMatchesFull's input into a config on
// the smallCfg geometry: Steps 1–24, Warmup 0–3 (0 takes the default),
// keep-last 1–3, micro-batches 1–2, a bandwidth share in [0, 1], a
// DRAM grant in MiB on presets with a DRAM rung, and a placement on
// stacked presets. share must be finite.
func fuzzSteadyCfg(preset, placement uint8, share float64, dramMiB uint16, steps, warmup, keepLast, micro uint8) RunConfig {
	p := fuzzPresets[int(preset)%len(fuzzPresets)]
	cfg := smallCfg(p.strategy)
	cfg.Schedule = p.schedule
	t := presets[p.strategy]
	if t.stacked() {
		cfg.Placement = fuzzPlacements[int(placement)%len(fuzzPlacements)]
		if cfg.Placement == PlacementSplit {
			cfg.SplitRatio = 0.5
		}
	}
	if t.dram {
		cfg.DRAMCapacity = units.Bytes(dramMiB) * units.MiB
	}
	cfg.SSDBandwidthShare = unitFrac(share)
	cfg.Steps = 1 + int(steps)%24
	cfg.Warmup = int(warmup) % 4
	cfg.KeepLastModules = 1 + int(keepLast)%3
	cfg.MicroBatches = 1 + int(micro)%2
	return cfg
}

// fuzzPriorCfg is the config a recycled arena runs before the fuzzed
// one: the same plan under other cheap knobs, all picked by prior. It
// takes the planner's budget, 1–24 steps, 1–3 warm-up steps and, when
// prior's top bit is set, full simulation; on stacked presets a placement
// of its own; half the DRAM grant on presets with a DRAM rung; and on
// presets with an NVMe rung a degrade window over steps two to four.
func fuzzPriorCfg(cfg RunConfig, prior uint8) RunConfig {
	p := cfg
	p.Budget = 0
	p.Steps = 1 + int(prior)%24
	p.Warmup = 1 + int(prior/24)%3
	if prior&0x80 != 0 {
		p.SteadyState = "off"
	}
	t := presets[p.Strategy]
	if t.stacked() {
		p.Placement = fuzzPlacements[int(prior/8)%len(fuzzPlacements)]
		p.SplitRatio = 0
		if p.Placement == PlacementSplit {
			p.SplitRatio = 0.5
		}
	}
	if t.dram && prior&0x40 != 0 {
		p.DRAMCapacity /= 2
	}
	if t.nvme && prior&0x20 != 0 {
		p.Faults = faults.Spec{DegradeAt: 20 * time.Millisecond, DegradeFactor: 0.5, DegradeFor: 30 * time.Millisecond}
	}
	return p
}

// ioConservation returns what a successful run broke of I/O
// conservation, or "". Every step reloads or forwards each byte it
// offloads and leaks no record, and the activation rungs write exactly
// the bytes the steps offload and read exactly the bytes they reload.
// The optimizer rungs carry shuttles the tensor cache never sees, so
// they are left out.
func ioConservation(sess *Session, res *RunResult) string {
	var offloaded, reloaded units.Bytes
	for i, m := range res.PerStep {
		if m.IO.Offloaded != m.IO.Reloaded+m.IO.Forwarded || m.IO.Leaked != 0 {
			return fmt.Sprintf("step %d offloaded %v, reloaded %v, forwarded %v, leaked %d records",
				i+1, m.IO.Offloaded, m.IO.Reloaded, m.IO.Forwarded, m.IO.Leaked)
		}
		offloaded += m.IO.Offloaded
		reloaded += m.IO.Reloaded
	}
	var written, read units.Bytes
	if sess.offloader != nil {
		for _, tu := range res.Tiers[:len(sess.offloader.Tiers())] {
			written += tu.Written
			read += tu.Read
		}
	}
	if written != offloaded || read != reloaded {
		return fmt.Sprintf("activation rungs wrote %v and read %v; the steps offloaded %v and reloaded %v",
			written, read, offloaded, reloaded)
	}
	return ""
}

// FuzzSteadyMatchesFull is the fast path's property over random small
// configs: with the fast path on, a run's RunResult is byte-identical
// to the fully simulated one in everything but the knob echo and the
// fast-path metadata, its simulated and extrapolated steps add up to
// Steps, and a run that fails fails the same way in both modes. The
// fuzzed config also runs on a recycled arena of its plan, after the
// fuzzPriorCfg config has run on it, and must give the fresh arena's
// result exactly. Every run that succeeds must end with only the
// weights and their gradient buffers live. The seed corpus is the seven
// steadyVariants at 20 steps, each after a prior run.
func FuzzSteadyMatchesFull(f *testing.F) {
	for i, v := range steadyVariants() {
		c := v.cfg.withDefaults()
		c.Steps = 20
		preset := slices.Index(fuzzPresets, fuzzPreset{c.Strategy, c.Schedule})
		placement := max(slices.Index(fuzzPlacements, c.Placement), 0)
		f.Add(uint8(preset), uint8(placement), c.SSDBandwidthShare, 0.0, uint16(c.DRAMCapacity/units.MiB),
			uint8(c.Steps-1), uint8(c.Warmup), uint8(c.KeepLastModules-1), uint8(c.MicroBatches-1), uint8(37*i))
	}
	f.Fuzz(func(t *testing.T, preset, placement uint8, share, budgetFrac float64, dramMiB uint16, steps, warmup, keepLast, micro, prior uint8) {
		for _, x := range []float64{share, budgetFrac} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("non-finite float")
			}
		}
		cfg, err := Normalize(fuzzSteadyCfg(preset, placement, share, dramMiB, steps, warmup, keepLast, micro))
		if err != nil {
			t.Skip(err)
		}
		plan, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The budget is a fraction of the plan's eligible bytes; 0 leaves
		// it to the planner.
		if budgetFrac != 0 {
			cfg.Budget = units.Bytes(unitFrac(budgetFrac) * float64(plan.EligibleBytes()))
		}
		// run executes cfg on sess and checks what the run left live and
		// that it conserved its I/O.
		run := func(sess *Session, cfg RunConfig) (*RunResult, error) {
			res, err := sess.Execute(cfg)
			if err == nil {
				a := sess.rt.Alloc
				if n, b := a.LiveCount(), a.LiveBytes(); n != 2*len(sess.weights) || b != 2*plan.WeightBytes() {
					t.Errorf("%d storages (%v) live after a run, want the %d weights and their gradients (%v) (cfg %+v)",
						n, b, len(sess.weights), 2*plan.WeightBytes(), cfg)
				}
				if msg := ioConservation(sess, res); msg != "" {
					t.Errorf("%s (cfg %+v)", msg, cfg)
				}
			}
			return res, err
		}
		fresh := func(cfg RunConfig) (*RunResult, error) {
			sess, err := NewSession(plan)
			if err != nil {
				t.Fatal(err)
			}
			return run(sess, cfg)
		}
		fast, errFast := fresh(cfg)
		slow := cfg
		slow.SteadyState = "off"
		full, errFull := fresh(slow)
		recycled, err := NewSession(plan)
		if err != nil {
			t.Fatal(err)
		}
		if pcfg, err := Normalize(fuzzPriorCfg(cfg, prior)); err == nil {
			run(recycled, pcfg) // its answer is not under test, only what it leaves behind
		}
		again, errAgain := run(recycled, cfg)
		if errFast != nil || errFull != nil || errAgain != nil {
			if errFast == nil || errFull == nil || errAgain == nil || errFast.Error() != errFull.Error() || errFast.Error() != errAgain.Error() {
				t.Fatalf("fast run error %v, full run error %v, recycled run error %v (cfg %+v)", errFast, errFull, errAgain, cfg)
			}
			return
		}
		if !reflect.DeepEqual(fast, again) {
			t.Errorf("a recycled arena's result differs from a fresh one's (cfg %+v, prior %+v)", cfg, fuzzPriorCfg(cfg, prior))
		}
		if got := fast.SteadyState.SimulatedSteps + fast.SteadyState.ExtrapolatedSteps; got != cfg.Steps {
			t.Errorf("simulated %d + extrapolated %d != %d steps",
				fast.SteadyState.SimulatedSteps, fast.SteadyState.ExtrapolatedSteps, cfg.Steps)
		}
		full.Config.SteadyState = fast.Config.SteadyState
		full.SteadyState = fast.SteadyState
		if !reflect.DeepEqual(fast, full) {
			t.Errorf("extrapolated result differs from full simulation (cfg %+v)", cfg)
		}
	})
}
