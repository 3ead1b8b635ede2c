// Command trace runs one traced training measurement on the simulated
// testbed and writes the flight recorder's capture as Chrome trace-event
// JSON — load it in Perfetto (ui.perfetto.dev) or chrome://tracing to see
// every resource's timeline: GPU compute per module, PCIe DMA, per-device
// NVMe I/O, tier queues, allocator events, and flow arrows linking each
// offload store to its reload. It also prints the attribution report:
// per-resource busy fractions, how much I/O was hidden behind compute,
// and what the GPU stalled on. Tracing never perturbs the measurement —
// the printed step time is byte-identical to an untraced run's.
//
// Usage:
//
//	trace -model bert -hidden 12288 -layers 3 -batch 16 -strategy ssdtrain -o trace.json
//	trace -strategy ssdtrain -faults "death@50ms:dev1" -o faulted.json
//
// -faults injects a deterministic fault schedule into the traced run (a
// device death and/or a degradation window); the capture then carries
// fault and rebuild spans on the tier track, so the attribution report
// shows the rebuild's bandwidth steal alongside the foreground I/O.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

func main() {
	model := flag.String("model", "bert", "architecture: gpt | bert | t5")
	hidden := flag.Int("hidden", 12288, "hidden dimension")
	layers := flag.Int("layers", 3, "transformer layer count")
	batch := flag.Int("batch", 16, "micro-batch size in sequences")
	strategy := flag.String("strategy", "ssdtrain", "placement: ssdtrain | no-offload | recompute | cpu-offload | hybrid")
	placement := flag.String("placement", "", "hybrid tier policy: ssd-only | dram-first | split (default dram-first)")
	dramGiB := flag.Float64("dram-gib", 0, "pinned host-memory pool in GiB (hybrid DRAM rung / cpu-offload bound; 0 = none/unbounded)")
	splitRatio := flag.Float64("split-ratio", 0.5, "DRAM share of offloaded bytes under -placement split")
	share := flag.Float64("share", 0, "SSD array bandwidth share under co-tenancy (0 or 1 = exclusive)")
	steps := flag.Int("steps", 1, "measured steps after warmup (traces grow with each)")
	faultsFlag := flag.String("faults", "", "fault schedule, e.g. \"death@50ms:dev1,degrade@10ms:0.5:100ms\" (empty = none)")
	out := flag.String("o", "trace.json", "Chrome trace-event JSON output file (- for stdout)")
	flag.Parse()

	spec, err := faults.ParseSpec(*faultsFlag)
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	run := exp.Spec{
		Model: models.PaperConfig(models.Arch(*model), *hidden, *layers, *batch),
		Offload: exp.OffloadSpec{
			Strategy:     exp.Strategy(*strategy),
			Placement:    exp.Placement(*placement),
			DRAMCapacity: units.Bytes(*dramGiB * float64(units.GiB)),
		},
		Run:    exp.RunSpec{Steps: *steps},
		Inject: exp.InjectSpec{Faults: spec, SSDBandwidthShare: *share},
	}
	if run.Offload.Placement == exp.PlacementSplit {
		run.Offload.SplitRatio = *splitRatio
	}
	cfg, err := run.RunConfig()
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	res, tr, err := exp.TraceOf(cfg)
	if err != nil {
		log.Fatalf("trace: %v", err)
	}

	blob := tr.ChromeJSON()
	if *out == "-" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatalf("trace: %v", err)
	}

	w := os.Stdout
	if *out == "-" {
		w = os.Stderr // keep stdout pure JSON for piping
	}
	fmt.Fprintf(w, "config      %s, strategy %s\n", run.Model, *strategy)
	fmt.Fprintf(w, "step time   %v (tracing does not perturb the measurement)\n",
		res.StepTime().Round(time.Microsecond))
	fmt.Fprintf(w, "captured    %d spans on %d tracks (%d dropped)\n",
		len(tr.Spans), len(tr.Tracks), tr.Dropped)
	if *out != "-" {
		fmt.Fprintf(w, "wrote       %s (%d bytes) — open in ui.perfetto.dev or chrome://tracing\n", *out, len(blob))
	}
	fmt.Fprintf(w, "\n%s", tr.Attribution())
}
