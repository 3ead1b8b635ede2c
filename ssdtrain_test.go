package ssdtrain

import (
	"strings"
	"testing"
)

// TestPublicAPIQuickstart exercises the documented facade end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := PaperConfig(GPT, 4096, 3, 8)
	cfg.SeqLen = 512
	cfg.Vocab = 16384
	base, err := Train(Spec{Model: cfg, Offload: OffloadSpec{Strategy: StrategyNoOffload}})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Train(Spec{Model: cfg, Offload: OffloadSpec{Strategy: StrategySSDTrain}})
	if err != nil {
		t.Fatal(err)
	}
	if off.Measured.ActPeak >= base.Measured.ActPeak {
		t.Errorf("offload peak %v not below baseline %v", off.Measured.ActPeak, base.Measured.ActPeak)
	}
	if r := float64(off.StepTime()) / float64(base.StepTime()); r > 1.02 {
		t.Errorf("offload overhead ratio %.3f", r)
	}
}

func TestPublicAPITables(t *testing.T) {
	if out := Table1().String(); !strings.Contains(out, "SSDTrain") {
		t.Errorf("Table1 output: %s", out)
	}
	f := Fig1()
	if f.MemoryVsThroughput <= 0 || f.MemoryVsThroughput >= 1 {
		t.Errorf("Fig1 ratio = %v", f.MemoryVsThroughput)
	}
	if len(Fig5()) != 12 || len(Fig8b()) != 5 {
		t.Error("projection row counts wrong")
	}
	if Fig8bReference().WriteBandwidth <= 0 {
		t.Error("reference projection empty")
	}
}

func TestPublicAPIFig6Render(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale geometry")
	}
	rows, err := Fig6(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := Fig6Table(rows).String()
	for _, want := range []string{"bert", "t5", "gpt", "H12288 L3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 table missing %q:\n%s", want, out)
		}
	}
}
