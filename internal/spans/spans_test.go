package spans

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ssdtrain/internal/units"
)

func TestRecorderDisabledAndNil(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	nilRec.Enable()
	nilRec.Span(0, KindForward, -1, "x", 0, 1, 0, 0)
	nilRec.Count("c", 1)
	nilRec.Reset()
	if got := nilRec.RegisterTrack("t"); got != -1 {
		t.Fatalf("nil RegisterTrack = %d, want -1", got)
	}
	if nilRec.Snapshot() != nil {
		t.Fatal("nil Snapshot not nil")
	}

	r := NewRecorder(8)
	tr := r.RegisterTrack("gpu")
	r.Span(tr, KindForward, -1, "x", 0, 1, 0, 0) // disabled: dropped
	r.Count("c", 1)
	if r.Len() != 0 {
		t.Fatalf("disabled recorder buffered %d spans", r.Len())
	}
	if got := r.Snapshot(); len(got.Spans) != 0 || len(got.Counts) != 0 {
		t.Fatalf("disabled recorder snapshot not empty: %+v", got)
	}
}

func TestRecorderDisabledEmitAllocs(t *testing.T) {
	r := NewRecorder(8)
	tr := r.RegisterTrack("gpu")
	allocs := testing.AllocsPerRun(1000, func() {
		r.Span(tr, KindForward, 3, "layer.0", 0, time.Microsecond, 4*units.KiB, 0)
		r.Count("c", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled emit allocates %.1f/op, want 0", allocs)
	}
}

func TestRecorderRingAndReset(t *testing.T) {
	r := NewRecorder(4)
	tr := r.RegisterTrack("gpu")
	r.Enable()
	for i := 0; i < 6; i++ {
		r.Span(tr, KindForward, int32(i), "op", time.Duration(i), time.Duration(i+1), 0, 0)
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("snapshot kept %d spans, want 4", len(snap.Spans))
	}
	// Oldest-first emission order: spans 2..5 survive.
	for i, s := range snap.Spans {
		if s.Block != int32(i+2) {
			t.Fatalf("span %d block = %d, want %d", i, s.Block, i+2)
		}
	}

	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("reset left %d spans, %d dropped", r.Len(), r.Dropped())
	}
	if got := r.RegisterTrack("gpu"); got != tr {
		t.Fatalf("track lost across reset: %d != %d", got, tr)
	}
	// Identical emission sequence after Reset snapshots identically.
	r.Enable()
	for i := 0; i < 6; i++ {
		r.Span(tr, KindForward, int32(i), "op", time.Duration(i), time.Duration(i+1), 0, 0)
	}
	snap2 := r.Snapshot()
	if !reflect.DeepEqual(snap.Spans, snap2.Spans) {
		t.Fatal("replayed emission sequence snapshots differently")
	}
}

func TestRegisterTrackIdempotent(t *testing.T) {
	r := NewRecorder(4)
	a := r.RegisterTrack("pcie0.down")
	b := r.RegisterTrack("pcie0.up")
	if a == b {
		t.Fatal("distinct tracks share an ID")
	}
	if got := r.RegisterTrack("pcie0.down"); got != a {
		t.Fatalf("re-registration returned %d, want %d", got, a)
	}
	// A pair registers the same names, built in one allocation.
	if down, up := r.RegisterPair("pcie0", ".down", ".up"); down != a || up != b {
		t.Fatalf("pair registered %d, %d, want %d, %d", down, up, a, b)
	}
	st, ld := r.RegisterPair("/mnt/md1", ".store", ".load")
	if names := r.Tracks(); names[st] != "/mnt/md1.store" || names[ld] != "/mnt/md1.load" {
		t.Fatalf("pair named %q, %q", names[st], names[ld])
	}
	if n := testing.AllocsPerRun(10, func() { r.RegisterPair("pcie1", ".down", ".up") }); n != 1 {
		t.Errorf("a pair takes %v allocations, want 1", n)
	}
}

// chromeDoc mirrors the trace-event JSON object format.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		ID   uint64         `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func testTrace() *Trace {
	r := NewRecorder(64)
	gpu := r.RegisterTrack("gpu.compute")
	st := r.RegisterTrack("/mnt/md1.store")
	ld := r.RegisterTrack("/mnt/md1.load")
	mem := r.RegisterTrack("gpu.mem")
	r.Enable()
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	r.Span(mem, KindAlloc, -1, "activations", us(0), us(0), 1024, 0)
	r.Span(gpu, KindForward, 0, "layers.0.mlp", us(0), us(10), 0, 0)
	r.Span(st, KindStore, -1, "store direct", us(10), us(14), 1024, 77)
	r.Span(gpu, KindBackward, 0, "layers.0.mlp.grad", us(12), us(22), 0, 0)
	r.Span(ld, KindLoad, -1, "load", us(14), us(18), 1024, 77)
	r.Span(gpu, KindStall, -1, "reload-wait", us(22), us(24), 0, 0)
	r.Span(mem, KindFree, -1, "activations", us(24), us(24), 1024, 0)
	return r.Snapshot()
}

func TestChromeJSONValid(t *testing.T) {
	tr := testTrace()
	raw := tr.ChromeJSON()
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome JSON does not parse: %v\n%s", err, raw)
	}
	var x, meta, flowS, flowF, inst int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			x++
		case "M":
			meta++
		case "s":
			flowS++
			if ev.ID != 77 {
				t.Fatalf("flow start id = %d, want 77", ev.ID)
			}
		case "f":
			flowF++
		case "i":
			inst++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 1+len(tr.Tracks) {
		t.Fatalf("metadata events = %d, want %d", meta, 1+len(tr.Tracks))
	}
	if x != 5 || inst != 2 {
		t.Fatalf("X=%d i=%d, want 5 and 2", x, inst)
	}
	if flowS != 1 || flowF != 1 {
		t.Fatalf("flow s=%d f=%d, want 1 and 1", flowS, flowF)
	}
	// Deterministic rendering.
	if string(raw) != string(testTrace().ChromeJSON()) {
		t.Fatal("chrome JSON not deterministic")
	}
}

func TestChromeJSONNoDanglingFlow(t *testing.T) {
	r := NewRecorder(8)
	ld := r.RegisterTrack("tier.load")
	r.Enable()
	// A load whose store span was overwritten by the ring: no "s" emitted,
	// so the "f" must be suppressed too.
	r.Span(ld, KindLoad, -1, "load", 0, time.Microsecond, 64, 42)
	raw := r.Snapshot().ChromeJSON()
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "f" || ev.Ph == "s" {
			t.Fatalf("dangling flow event %q emitted", ev.Ph)
		}
	}
}

func TestAttribution(t *testing.T) {
	tr := testTrace()
	a := tr.Attribution()
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	if a.Horizon != us(24) {
		t.Fatalf("horizon = %v, want 24µs", a.Horizon)
	}
	// Compute: [0,10) ∪ [12,22) = 20µs. IO: [10,14) ∪ [14,18) = 8µs.
	// Overlap: [12,14) ∪ [14,18) = 6µs.
	if a.ComputeBusy != us(20) {
		t.Fatalf("compute busy = %v, want 20µs", a.ComputeBusy)
	}
	if a.IOBusy != us(8) {
		t.Fatalf("io busy = %v, want 8µs", a.IOBusy)
	}
	if a.Overlap != us(6) {
		t.Fatalf("overlap = %v, want 6µs", a.Overlap)
	}
	if a.Stall != us(2) || len(a.Stalls) != 1 || a.Stalls[0].Cause != "reload-wait" {
		t.Fatalf("stalls = %v %+v", a.Stall, a.Stalls)
	}
	if got := a.OverlapFrac(); got != 0.75 {
		t.Fatalf("overlap frac = %v, want 0.75", got)
	}
	if a.String() == "" {
		t.Fatal("empty report")
	}
	// gpu.compute track busy includes the stall interval merge: [0,10)∪[12,24) = 22µs.
	if a.Tracks[0].Track != "gpu.compute" || a.Tracks[0].Busy != us(22) {
		t.Fatalf("track usage = %+v", a.Tracks[0])
	}
}
