package exp

import (
	"math"
	"runtime"
	"testing"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/models"
)

// allocCase is one configuration of the warm-session allocation contract
// and the answers golden.
type allocCase struct {
	name string
	cfg  RunConfig
}

// allocCases covers every preset on the GPT 8192×4 batch-16 geometry:
// the hybrid stack under each placement, the offloaded optimizer under
// each schedule, two micro-batches, and a degrade window that opens and
// closes inside the run without failing it. The split placement never
// converges, so with the fast path on it folds every step.
func allocCases() []allocCase {
	base := func(s Strategy) RunConfig {
		return RunConfig{Model: models.PaperConfig(models.GPT, 8192, 4, 16), Strategy: s}
	}
	hybrid := func(p Placement) RunConfig {
		c := base(HybridOffload)
		c.Placement = p
		c.DRAMCapacity = 256 << 20
		if p == PlacementSplit {
			c.SplitRatio = 0.5
		}
		return c
	}
	optim := func(schedule string) RunConfig {
		c := base(OptimOffload)
		c.Schedule = schedule
		return c
	}
	micro := base(SSDTrain)
	micro.MicroBatches = 2
	degraded := base(SSDTrain)
	degraded.Faults = faults.Spec{DegradeAt: 3 * time.Second, DegradeFactor: 0.5, DegradeFor: 3 * time.Second}
	return []allocCase{
		{"no-offload", base(NoOffload)},
		{"recompute", base(Recompute)},
		{"ssdtrain", base(SSDTrain)},
		{"cpu-offload", base(CPUOffload)},
		{"hybrid/dram-first", hybrid(PlacementDRAMFirst)},
		{"hybrid/ssd-only", hybrid(PlacementSSDOnly)},
		{"hybrid/split", hybrid(PlacementSplit)},
		{"optim-offload/sync", optim(ScheduleSync)},
		{"optim-offload/overlap", optim(ScheduleOverlap)},
		{"ssdtrain/micro-batches-2", micro},
		{"ssdtrain/degrade", degraded},
	}
}

// resultObjects counts the heap objects a RunResult owns, the only ones
// a warm Execute may allocate:
//   - the RunResult struct;
//   - its PerStep rows;
//   - its Tiers rows, when the strategy offloads;
//   - its optimizer summary (Optim), under optim-offload.
func resultObjects(res *RunResult) float64 {
	n := 2
	if res.Tiers != nil {
		n++
	}
	if res.Optim != nil {
		n++
	}
	return float64(n)
}

// TestWarmExecuteAllocs is the hot path's allocation contract: on a warm
// session a simulated step allocates nothing, so a 20-step and a 60-step
// Execute allocate the same, and that is no more than the objects the
// RunResult owns. It holds with the fast path off and on. Traced and
// materialized runs are out of scope: the span log and the payloads grow
// by design.
//
// The per-storage side maps (the allocator's live set, the lifetimes,
// the block stores, the GDS registry) are Go maps that entries churn
// through every step, and with the hash seed each clear draws, once in a
// while one of them runs out of room and grows its table mid-run. That
// can only add allocations and is rare on a warm arena, so each count is
// the fewest seen over a few tries; an allocation the simulation makes
// per step shows in every try.
func TestWarmExecuteAllocs(t *testing.T) {
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			plan, err := Compile(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, steady := range []string{"off", "on"} {
				short, long := c.cfg, c.cfg
				short.SteadyState, long.SteadyState = steady, steady
				short.Steps, long.Steps = 20, 60
				var res *RunResult
				execute := func(cfg RunConfig) func() {
					return func() {
						if res, err = sess.Execute(cfg); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, cfg := range []RunConfig{long, short, long} {
					execute(cfg)()
				}
				limit := resultObjects(res)
				a20, a60 := math.Inf(1), math.Inf(1)
				for try := 0; try < 5 && (a20 != a60 || a60 > limit); try++ {
					a20 = min(a20, testing.AllocsPerRun(1, execute(short)))
					a60 = min(a60, testing.AllocsPerRun(1, execute(long)))
				}
				if a20 != a60 {
					t.Errorf("steady %s: a warm Execute allocates per simulated step: %v objects at 20 steps, %v at 60",
						steady, a20, a60)
				}
				if a60 > limit {
					t.Errorf("steady %s: a warm Execute allocates %v objects, more than the %v its RunResult owns",
						steady, a60, limit)
				}
			}
		})
	}
}

// coldBaseline is what NewSession plus the first Execute allocated, in
// bytes, for each allocCases config at 48 steps, before arenas were sized
// up front: the event log and every side table grew from empty, copying
// themselves through a chain of regrowths. Each is the fewest bytes over
// several runs on go1.24.0.
var coldBaseline = map[string]uint64{
	"no-offload":               220984,
	"recompute":                275288,
	"ssdtrain":                 260944,
	"cpu-offload":              254840,
	"hybrid/dram-first":        262632,
	"hybrid/ssd-only":          262200,
	"hybrid/split":             2421464,
	"optim-offload/sync":       260672,
	"optim-offload/overlap":    260672,
	"ssdtrain/micro-batches-2": 448376,
	"ssdtrain/degrade":         2419520,
}

// coldObjects is what NewSession plus the first Execute allocated, in
// heap objects, for every allocCases config at 48 steps, before a cold
// arena was built from slabs: one object per tensor, name, record, file
// and FIFO server. Each is the fewest objects over several runs on
// go1.24.0.
var coldObjects = map[string]uint64{
	"no-offload":               489,
	"recompute":                586,
	"ssdtrain":                 762,
	"cpu-offload":              735,
	"hybrid/dram-first":        786,
	"hybrid/ssd-only":          777,
	"hybrid/split":             796,
	"optim-offload/sync":       791,
	"optim-offload/overlap":    791,
	"ssdtrain/micro-batches-2": 866,
	"ssdtrain/degrade":         763,
}

// allocsOf returns the heap objects and bytes f allocates, on one P as
// testing.AllocsPerRun counts them.
func allocsOf(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestColdSessionAllocs is the cold arena's contract: a fresh arena sizes
// its scratch before its first step and takes its tensors, names,
// records, files and servers from a few slabs, so NewSession plus the
// first Execute of a 48-step run allocate at most 60% of coldBaseline's
// bytes and a quarter of coldObjects' objects. The allocator folds each
// step's events into its report before the next step runs, so the event
// log never outgrows the one step NewSession reserves: its capacity is
// that reservation after the run, whether the run converges or not, and
// after a run of ten times the steps with the fast path off. Every bound
// covers every allocCases config. As in TestWarmExecuteAllocs, each
// count is the fewest over a few tries: a side map may draw a hash seed
// that grows it early.
func TestColdSessionAllocs(t *testing.T) {
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Steps = 48
			plan, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			best, fewest := uint64(math.MaxUint64), uint64(math.MaxUint64)
			var sess *Session
			var reserved int
			for try := 0; try < 5; try++ {
				objects, n := allocsOf(func() {
					if sess, err = NewSession(plan); err == nil {
						_, reserved = sess.rt.Alloc.Events()
						_, err = sess.Execute(cfg)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				best, fewest = min(best, n), min(fewest, objects)
				if _, capacity := sess.rt.Alloc.Events(); capacity != reserved {
					t.Errorf("the event log grew from the %d events NewSession reserved to %d", reserved, capacity)
				}
			}
			if limit := coldObjects[c.name] / 4; fewest > limit {
				t.Errorf("a cold arena allocates %d objects, more than a quarter of the %d it took before slabs (%d)",
					fewest, coldObjects[c.name], limit)
			}
			base, ok := coldBaseline[c.name]
			if !ok {
				t.Fatal("no baseline")
			}
			if limit := base * 3 / 5; best > limit {
				t.Errorf("a cold arena allocates %d B, more than 60%% of the %d B it took before sizing (%d B)", best, base, limit)
			}
			t.Logf("%d objects, %d B, event log of %d", fewest, best, reserved)

			long := cfg
			long.Steps, long.SteadyState = 10*cfg.Steps, "off"
			if _, err := sess.Execute(long); err != nil {
				t.Fatal(err)
			}
			if _, capacity := sess.rt.Alloc.Events(); capacity != reserved {
				t.Errorf("%d steps with the fast path off grew the event log from %d to %d", long.Steps, reserved, capacity)
			}
		})
	}
}
