package fleet

import (
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fleet_report.golden from this run")

// TestFleetReportByteIdentical pins a three-policy fleet sweep — whose
// per-job profiles now run through the tiered offload path — to the
// report rendering captured at 370fcb2 (pre-refactor). Regenerate (only
// for a deliberate behaviour change) with
// `go test ./internal/exp ./internal/fleet -update`.
func TestFleetReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale profiles")
	}
	cluster := ClusterSpec{Nodes: 2, Node: DefaultNodeSpec()}
	jobs := DefaultJobMix(MixConfig{Jobs: 10, Seed: 1})
	reports, err := PolicySweep(cluster, jobs, Policies(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/fleet_report.golden"
	got := RenderReports(reports)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fleet report diverged from its anchor:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
