package ssd

import (
	"testing"
	"testing/quick"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/units"
)

func TestSpecs(t *testing.T) {
	p := IntelP5800X16TB()
	if p.Media != XPoint || p.JESDWAF != 1.0 {
		t.Errorf("P5800X spec wrong: %+v", p)
	}
	// 100 DWPD over 5 years.
	if d := p.DWPD(5); d < 99 || d > 101 {
		t.Errorf("P5800X DWPD = %v", d)
	}
	s := Samsung980Pro1TB()
	if s.RatedTBW != 600*units.TB || s.Media != NAND {
		t.Errorf("980 PRO spec wrong: %+v", s)
	}
	// Consumer TLC: ~0.3 DWPD over 5 years.
	if d := s.DWPD(5); d < 0.25 || d > 0.4 {
		t.Errorf("980 PRO DWPD = %v", d)
	}
	if p.PricePerPBW() <= 0 || s.PricePerPBW() <= 0 {
		t.Error("price per PBW should be positive")
	}
}

func TestGeometry(t *testing.T) {
	g := SmallTestGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalBlocks() != 64*2*2*4 {
		t.Errorf("blocks = %d", g.TotalBlocks())
	}
	if g.BlockBytes() != 16*units.KiB*64 {
		t.Errorf("block bytes = %v", g.BlockBytes())
	}
	if g.UsableBytes() >= g.PhysicalBytes() {
		t.Error("over-provisioning missing")
	}
	bad := g
	bad.OverProvision = 0.9
	if bad.Validate() == nil {
		t.Error("bad over-provision accepted")
	}
}

func TestFTLSequentialWAFNearOne(t *testing.T) {
	f, err := NewFTL(SmallTestGeometry())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(f.LogicalPages())
	extent := total / 4
	for round := 0; round < 30; round++ {
		start := (int64(round) % 3) * extent
		f.Trim(start, extent)
		f.WriteRange(start, extent)
	}
	st := f.Stats()
	if st.WAF > 1.05 {
		t.Errorf("sequential+trim WAF = %.3f, want ≈ 1 (paper §II-C)", st.WAF)
	}
}

func TestFTLRandomWAFAboveOne(t *testing.T) {
	f, err := NewFTL(SmallTestGeometry())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(f.LogicalPages())
	fill := total * 9 / 10
	f.WriteRange(0, fill)
	x := uint64(12345)
	for i := int64(0); i < total*4; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f.WritePage(int64(x % uint64(fill)))
	}
	st := f.Stats()
	if st.WAF < 1.5 {
		t.Errorf("random-overwrite WAF = %.3f, want well above 1", st.WAF)
	}
	if st.Erases == 0 {
		t.Error("no garbage collection happened")
	}
}

func TestFTLWearLeveling(t *testing.T) {
	f, err := NewFTL(SmallTestGeometry())
	if err != nil {
		t.Fatal(err)
	}
	// Hammer a small logical range; wear should still spread.
	hot := int64(f.Geometry().PagesPerBlock) * 4
	for i := 0; i < 200; i++ {
		f.WriteRange(0, hot)
	}
	st := f.Stats()
	if st.MaxPE > int(st.MeanPE*20+10) {
		t.Errorf("wear concentrated: max PE %d vs mean %.1f", st.MaxPE, st.MeanPE)
	}
}

func TestFTLHostBytes(t *testing.T) {
	f, _ := NewFTL(SmallTestGeometry())
	f.WriteRange(0, 10)
	want := units.Bytes(10) * f.Geometry().PageSize
	if f.HostBytes() != want {
		t.Errorf("host bytes = %v, want %v", f.HostBytes(), want)
	}
}

// Property: after any mix of writes and trims, the sum of per-block valid
// counters equals the number of live logical pages.
func TestFTLValidAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		ftl, err := NewFTL(SmallTestGeometry())
		if err != nil {
			return false
		}
		total := int64(ftl.LogicalPages())
		live := make(map[int64]bool)
		for _, op := range ops {
			lpn := int64(op) % total
			if op%3 == 0 {
				ftl.Trim(lpn, 1)
				delete(live, lpn)
			} else {
				ftl.WritePage(lpn)
				live[lpn] = true
			}
		}
		valid := 0
		for i := range ftl.blocks {
			valid += ftl.blocks[i].valid
		}
		return valid == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEnduranceModel(t *testing.T) {
	m := DefaultEnduranceModel()
	// 600 TB × 4 drives × 2.5 (JESD WAF vs sequential) × 86 (retention).
	want := units.Bytes(600e12 * 4 * 2.5 * 86)
	if got := m.LifetimeHostWrites(); got != want {
		t.Errorf("endurance budget = %v, want %v", got, want)
	}
	// Hand-computed lifespan: 10 GB per 1 s step.
	years := m.LifespanYears(10*units.GB, time.Second)
	wantYears := float64(want) / 10e9 / (365.25 * 24 * 3600)
	if diff := years/wantYears - 1; diff > 0.01 || diff < -0.01 {
		t.Errorf("lifespan %v years, want %v", years, wantYears)
	}
	// No writes → effectively unlimited.
	if m.LifespanYears(0, time.Second) < 99 {
		t.Error("zero writes should report a century")
	}
}

func TestRequiredWriteBandwidth(t *testing.T) {
	// 10 GB over half of a 2 s step = 10 GB/s.
	bw := RequiredWriteBandwidth(10*units.GB, 2*time.Second)
	if bw != 10*units.GBps {
		t.Errorf("required bw = %v", bw)
	}
}

func TestDeviceQueueing(t *testing.T) {
	d := NewDevice(nil, "nvme0", IntelP5800X16TB())
	f1 := d.Write(0, units.Bytes(6.1e9)) // one second of writes
	if f1 < time.Second || f1 > time.Second+time.Millisecond {
		t.Errorf("write finish = %v", f1)
	}
	// Reads do not queue behind writes.
	r1 := d.Read(0, units.Bytes(7.2e9))
	if r1 > time.Second+time.Millisecond {
		t.Errorf("read queued behind write: %v", r1)
	}
	if d.HostWritten() != units.Bytes(6.1e9) || d.HostRead() != units.Bytes(7.2e9) {
		t.Error("byte accounting wrong")
	}
}

func TestArrayStriping(t *testing.T) {
	devs := []*Device{
		NewDevice(nil, "d0", IntelP5800X16TB()),
		NewDevice(nil, "d1", IntelP5800X16TB()),
		NewDevice(nil, "d2", IntelP5800X16TB()),
		NewDevice(nil, "d3", IntelP5800X16TB()),
	}
	a := NewArray("/mnt/md1", 512*units.KiB, devs...)
	if a.AggregateWrite() != 4*6.1*units.GBps {
		t.Errorf("aggregate write = %v", a.AggregateWrite())
	}
	n := units.Bytes(4 * units.GB)
	fin := a.Write(0, n)
	// Striped across 4 devices: ≈ size/(4·6.1GB/s).
	want := units.Bandwidth(4 * 6.1 * units.GBps).TimeFor(n)
	if fin < want || fin > want+10*time.Millisecond {
		t.Errorf("array write = %v, want ≈ %v", fin, want)
	}
	// Shares conserve bytes.
	if a.HostWritten() != n {
		t.Errorf("striped bytes = %v, want %v", a.HostWritten(), n)
	}
	// Each member got roughly a quarter.
	for _, d := range devs {
		q := float64(d.HostWritten()) / float64(n)
		if q < 0.2 || q > 0.3 {
			t.Errorf("member share = %.3f", q)
		}
	}
}

// Property: array striping conserves bytes for any transfer size.
func TestArraySharesConserveProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		devs := []*Device{
			NewDevice(nil, "d0", IntelP5800X16TB()),
			NewDevice(nil, "d1", IntelP5800X16TB()),
			NewDevice(nil, "d2", IntelP5800X16TB()),
		}
		a := NewArray("md", 128*units.KiB, devs...)
		var total units.Bytes
		for _, sz := range sizes {
			n := units.Bytes(sz%(1<<24)) + 1
			a.Write(0, n)
			total += n
		}
		return a.HostWritten() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestArrayTransfersAllocateNothing: striping a write or a read over the
// members allocates nothing, including a transfer whose dead member's
// share a fault moves onto a survivor.
func TestArrayTransfersAllocateNothing(t *testing.T) {
	devs := []*Device{
		NewDevice(nil, "d0", IntelP5800X16TB()),
		NewDevice(nil, "d1", IntelP5800X16TB()),
		NewDevice(nil, "d2", IntelP5800X16TB()),
		NewDevice(nil, "d3", IntelP5800X16TB()),
	}
	a := NewArray("md", 512*units.KiB, devs...)
	ctl := faults.NewController(faults.Spec{DeviceDeathAt: time.Second, Device: 1}, len(devs), 0, time.Hour)
	a.SetFaults(&ctl)
	n := 3*units.MiB + 1 // seven stripes, the last one cut short
	for _, ready := range []time.Duration{0, 2 * time.Second} {
		allocs := testing.AllocsPerRun(100, func() {
			a.Write(ready, n)
			a.Read(ready, n)
		})
		if allocs != 0 {
			t.Errorf("ready %v: a striped write and read allocate %v objects, want 0", ready, allocs)
		}
	}
	// The transfers after the death were redistributed: the dead member
	// took none of them.
	written, read := devs[1].HostWritten(), devs[1].HostRead()
	a.Write(2*time.Second, n)
	a.Read(2*time.Second, n)
	if devs[1].HostWritten() != written || devs[1].HostRead() != read {
		t.Error("the dead member's share was not redistributed")
	}
}

func TestBlockStore(t *testing.T) {
	b := NewBlockStore[string]()
	data := []byte("activation tensor payload")
	b.WriteFile("/mnt/md1/t1.pt", data)
	got, ok := b.ReadFile("/mnt/md1/t1.pt")
	if !ok || string(got) != string(data) {
		t.Fatalf("round trip failed: %q %v", got, ok)
	}
	// Mutating the returned slice must not corrupt the store.
	got[0] = 'X'
	again, _ := b.ReadFile("/mnt/md1/t1.pt")
	if string(again) != string(data) {
		t.Error("store aliases caller buffers")
	}
	b.WriteSize("/mnt/md1/t2.pt", 1000)
	if sz, ok := b.Size("/mnt/md1/t2.pt"); !ok || sz != 1000 {
		t.Errorf("size-only file: %v %v", sz, ok)
	}
	if d, ok := b.ReadFile("/mnt/md1/t2.pt"); !ok || d != nil {
		t.Error("size-only read should return nil payload")
	}
	if b.Used() != units.Bytes(len(data))+1000 {
		t.Errorf("used = %v", b.Used())
	}
	if b.PeakUsed() != b.Used() {
		t.Errorf("peak = %v", b.PeakUsed())
	}
	b.Delete("/mnt/md1/t1.pt")
	b.Delete("/mnt/md1/t1.pt") // idempotent
	if b.Count() != 1 {
		t.Errorf("count = %d", b.Count())
	}
	if b.PeakUsed() <= b.Used() {
		t.Error("peak should exceed current after delete")
	}
	// Overwrite replaces, not accumulates.
	b.WriteSize("/mnt/md1/t2.pt", 500)
	if b.Used() != 500 {
		t.Errorf("used after overwrite = %v", b.Used())
	}
	if files := b.Files(); len(files) != 1 || files[0] != "/mnt/md1/t2.pt" {
		t.Errorf("files = %v", files)
	}
	if _, ok := b.ReadFile("missing"); ok {
		t.Error("missing file read ok")
	}
}
