package exp

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters.golden from this run")

// TestCountersByteIdentical pins the runtime counters — the executor's
// and the tensor cache's packs, stores, forwards and dedup hits — of a
// 20-step run of every allocCases config to their rendering before the
// counter set became an enum-indexed array. Where the fast path
// converges, the counters past convergence are extrapolated; the
// degrade window simulates every step.
// Regenerate (only for a deliberate behaviour change) with
// `go test ./internal/exp -run TestCountersByteIdentical -update-counters`.
func TestCountersByteIdentical(t *testing.T) {
	var b strings.Builder
	for _, c := range allocCases() {
		c.cfg.Steps = 20
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b.WriteString(c.name + ": " + res.Counters.String() + "\n")
	}
	got := b.String()
	const path = "testdata/counters.golden"
	if *updateCounters {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readGolden(t, path); got != want {
		t.Errorf("counters diverged from their anchor:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
