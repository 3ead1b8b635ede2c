package trace

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ssdtrain/internal/units"
)

func TestCounters(t *testing.T) {
	var c Counters
	if got := c.String(); got != "" {
		t.Errorf("zero Counters String() = %q, want empty", got)
	}
	c.Add(ExecPacks, 2)
	c.Add(CacheStores, 1)
	c.Add(ExecPacks, 3)
	c.Add(CacheLeaks, 0)
	if c.Get("exec.packs") != 5 || c.Get("cache.stores") != 1 || c.Value(ExecPacks) != 5 {
		t.Errorf("counter values wrong: %s", c.String())
	}
	if c.Get("cache.loads") != 0 || c.Get("missing") != 0 {
		t.Error("an untouched counter or an unknown name must read 0")
	}
	// Only touched counters are listed, sorted by name; a zero add
	// touches.
	if got, want := c.String(), "cache.leaks=0 cache.stores=1 exec.packs=5"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := c.Names(); !slices.Equal(got, []string{"cache.leaks", "cache.stores", "exec.packs"}) {
		t.Errorf("Names() = %v", got)
	}
	snap := c
	c.Reset()
	if got := c.String(); got != "" || len(c.Names()) != 0 || c.Get("exec.packs") != 0 || c.Touched(ExecPacks) {
		t.Errorf("after Reset: String() = %q, Names() = %v", got, c.Names())
	}
	if snap.Get("exec.packs") != 5 {
		t.Error("Reset changed a copied snapshot")
	}
}

// TestCounterNamesSorted pins the enum to name order, which String and
// Names rely on to list counters sorted.
func TestCounterNamesSorted(t *testing.T) {
	for k := Counter(1); k < NumCounters; k++ {
		if prev := k - 1; prev.String() >= k.String() {
			t.Errorf("counter %d %q does not sort after %q", k, k, prev)
		}
	}
}

func TestStepStats(t *testing.T) {
	s := StepStats{
		StepTime:       time.Second,
		ModelFLOPs:     100 * units.TFLOP,
		OffloadedBytes: 10 * units.GB,
	}
	if s.ModelThroughput() != units.FLOPSRate(100*units.TFLOPS) {
		t.Errorf("throughput = %v", s.ModelThroughput())
	}
	if s.WriteBandwidth() != units.Bandwidth(10*units.GBps) {
		t.Errorf("write bw = %v", s.WriteBandwidth())
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("b", "x")
	out := tab.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "alpha") {
		t.Errorf("table output missing parts:\n%s", out)
	}
	if !strings.Contains(out, "1.50") {
		t.Errorf("float not formatted: %s", out)
	}
	if len(tab.Rows()) != 2 {
		t.Errorf("rows = %d", len(tab.Rows()))
	}
}
