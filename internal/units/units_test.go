package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0 B"},
		{999, "999 B"},
		{KB, "1.00 KB"},
		{1536 * MB, "1.54 GB"},
		{2 * TB, "2.00 TB"},
		{3 * PB, "3.00 PB"},
		{-2 * GB, "-2.00 GB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestByteUnitConversions(t *testing.T) {
	if GiB != 1<<30 {
		t.Fatalf("GiB = %d", GiB)
	}
	if (2 * GiB).GiBf() != 2.0 {
		t.Errorf("GiBf: %v", (2 * GiB).GiBf())
	}
	if (3 * GB).GBf() != 3.0 {
		t.Errorf("GBf: %v", (3 * GB).GBf())
	}
	if (5 * TB).TBf() != 5.0 {
		t.Errorf("TBf: %v", (5 * TB).TBf())
	}
}

func TestBandwidthTimeFor(t *testing.T) {
	bw := Bandwidth(1 * GBps)
	if got := bw.TimeFor(1 * GB); got != time.Second {
		t.Errorf("1GB at 1GB/s = %v, want 1s", got)
	}
	if got := bw.TimeFor(0); got != 0 {
		t.Errorf("0 bytes should take 0, got %v", got)
	}
	// Tiny transfers round up to 1ns rather than vanishing.
	if got := Bandwidth(100 * GBps).TimeFor(1); got < time.Nanosecond {
		t.Errorf("sub-ns transfer rounded to %v", got)
	}
	if got := Bandwidth(0).TimeFor(GB); got != 0 {
		t.Errorf("zero bandwidth should yield 0 (guarded), got %v", got)
	}
}

func TestFLOPSRateTimeFor(t *testing.T) {
	r := FLOPSRate(2 * TFLOPS)
	if got := r.TimeFor(2 * TFLOP); got != time.Second {
		t.Errorf("2 TFLOP at 2 TFLOP/s = %v", got)
	}
	if got := r.TimeFor(0); got != 0 {
		t.Errorf("zero work should take 0, got %v", got)
	}
}

func TestRateRoundTrip(t *testing.T) {
	r := Rate(100*GFLOP, time.Second)
	if r != FLOPSRate(100*GFLOPS) {
		t.Errorf("Rate = %v", r)
	}
	if Rate(GFLOP, 0) != 0 {
		t.Errorf("zero duration should yield 0 rate")
	}
	if BandwidthOf(GB, time.Second) != Bandwidth(GBps) {
		t.Errorf("BandwidthOf mismatch")
	}
}

func TestStringFormats(t *testing.T) {
	if got := Bandwidth(12.5 * GBps).String(); got != "12.50 GB/s" {
		t.Errorf("bandwidth string: %q", got)
	}
	if got := FLOPSRate(312 * TFLOPS).String(); got != "312.0 TFLOP/s" {
		t.Errorf("rate string: %q", got)
	}
}

// Property: transfer time is monotone in size and inversely monotone in
// bandwidth.
func TestTimeForMonotonic(t *testing.T) {
	f := func(a, b uint32, bw uint32) bool {
		lo, hi := Bytes(a), Bytes(a)+Bytes(b)
		w := Bandwidth(bw%1000+1) * MBps
		return w.TimeFor(lo) <= w.TimeFor(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(n uint32, b1, b2 uint16) bool {
		slow := Bandwidth(b1%999+1) * MBps
		fast := slow + Bandwidth(b2+1)*MBps
		return fast.TimeFor(Bytes(n)) <= slow.TimeFor(Bytes(n))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	// Into the overflow range: at 1 B/s, sizes up to 2e10 B straddle the
	// largest Duration (about 9.2e9 s, 292 years). A longer transfer
	// saturates there instead of wrapping negative and then taking the
	// 1 ns floor.
	h := func(a, b uint64) bool {
		lo := Bytes(a % 2e10)
		hi := lo + Bytes(b%2e10)
		w := Bandwidth(1)
		return w.TimeFor(lo) <= w.TimeFor(hi)
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
	if got := Bandwidth(1).TimeFor(math.MaxInt64); got != math.MaxInt64 {
		t.Errorf("TimeFor(MaxInt64 B) at 1 B/s = %v, want the largest Duration", got)
	}
	if got := FLOPSRate(1).TimeFor(1e300); got != math.MaxInt64 {
		t.Errorf("TimeFor(1e300 FLOP) at 1 FLOP/s = %v, want the largest Duration", got)
	}
}

// Property: Rate inverts TimeFor within rounding error.
func TestRateInvertsTimeFor(t *testing.T) {
	f := func(work uint32) bool {
		w := FLOPs(work) + 1e6
		r := FLOPSRate(5 * TFLOPS)
		d := r.TimeFor(w)
		back := Rate(w, d)
		ratio := float64(back) / float64(r)
		return ratio > 0.99 && ratio < 1.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
