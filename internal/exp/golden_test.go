package exp

import (
	"flag"
	"os"
	"testing"

	"ssdtrain/internal/models"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// checkGolden compares got with a byte-identity anchor. The figure and
// trace goldens were captured at 370fcb2, before the offload layer
// became a tiered hierarchy. Regenerate every golden (only for a
// deliberate behaviour change) with
// `go test ./internal/exp ./internal/fleet -update`.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(blob); got != want {
		t.Errorf("%s diverged:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestFig6ByteIdentical pins Fig 6 — every column of which now runs
// through the tiered offloader as a degenerate one-tier NVMe stack —
// to the pre-refactor rendering.
func TestFig6ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale geometry")
	}
	rows, err := Fig6(16)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/fig6.golden", Fig6Table(rows).String())
}

// TestFig7ByteIdentical pins the recompute-offload-keep curve.
func TestFig7ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale geometry")
	}
	pts, err := Fig7(12288, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/fig7.golden", Fig7Table(12288, pts).String())
}

// TestTable3ByteIdentical pins the offload-volume validation table.
func TestTable3ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale geometry")
	}
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/table3.golden", Table3Table(rows).String())
}

// TestOptimSweepByteIdentical pins the GreedySnake-vs-SSDTrain
// comparison: the optim-offload strategy across DRAM residency under
// both schedules, with the activation-offload baseline alongside.
func TestOptimSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale geometry")
	}
	r, err := OptimSweep(Spec{
		Model: models.PaperConfig(models.BERT, 2048, 24, 8),
		Run:   RunSpec{MicroBatches: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/optim_sweep.golden", OptimSweepTable(r).String())
}
