package trace

import (
	"strings"
	"testing"
	"time"

	"ssdtrain/internal/units"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("b", 2)
	c.Add("a", 1)
	c.Add("b", 3)
	if c.Get("b") != 5 || c.Get("a") != 1 || c.Get("missing") != 0 {
		t.Errorf("counter values wrong: %s", c)
	}
	if got := c.String(); got != "a=1 b=5" {
		t.Errorf("String() = %q", got)
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
