package parallel

import (
	"testing"
	"time"

	"ssdtrain/internal/units"
)

func TestSpecBasics(t *testing.T) {
	s := Spec{TP: 8, PP: 16, DP: 3, MicroBatch: 2, MicroBatches: 256}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.GPUs() != 384 {
		t.Errorf("gpus = %d", s.GPUs())
	}
	if s.GlobalBatch() != 1536 {
		t.Errorf("global batch = %d", s.GlobalBatch())
	}
	bad := s
	bad.TP = 0
	if bad.Validate() == nil {
		t.Error("zero TP accepted")
	}
	bad = s
	bad.ZeRO = 7
	if bad.Validate() == nil {
		t.Error("bad ZeRO stage accepted")
	}
}

func TestCollectives(t *testing.T) {
	f := DefaultA100Fabric()
	// Single rank: free.
	if f.AllReduceIB(units.GB, 1) != 0 {
		t.Error("single-rank collective not free")
	}
	// All-reduce moves 2(n-1)/n, all-gather (n-1)/n: AR ≈ 2× AG.
	ar := f.AllReduceIB(units.GB, 8)
	ag := f.AllGatherIB(units.GB, 8)
	ratio := float64(ar-f.InterconnectLatency) / float64(ag-f.InterconnectLatency)
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("AR/AG = %v", ratio)
	}
	// More ranks move asymptotically more data.
	if f.AllReduceIB(units.GB, 128) <= f.AllReduceIB(units.GB, 2) {
		t.Error("ring cost not increasing with ranks")
	}
	// P2P transfers the payload once.
	p2p := f.P2P(units.GB)
	secs := float64(units.GB) / (0.75 * 25e9)
	want := f.InterconnectLatency + time.Duration(secs*float64(time.Second))
	if diff := p2p - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("p2p = %v want ≈ %v", p2p, want)
	}
}
