package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"time"
)

// selfTest runs every workload briefly, untraced and traced, under two
// seeds. It checks that the two seeds give different operation
// sequences, that every run passes its answer checks, and that each
// output carries exactly its table's metrics, each finite (measure
// guarantees that) and with its unit.
func selfTest(log io.Writer, outdir string) error {
	for _, name := range workloadNames {
		h1, err := sequenceOf(name, 1)
		if err != nil {
			return err
		}
		h2, err := sequenceOf(name, 2)
		if err != nil {
			return err
		}
		if h1 == h2 {
			return fmt.Errorf("%s: seeds 1 and 2 give the same operation sequence", name)
		}
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, seed := range []uint64{1, 2} {
				res, err := measure(name, seed, 600*time.Millisecond, traced, outdir, quickRun, io.Discard)
				if err != nil {
					return fmt.Errorf("%s seed %d traced=%v: %w", name, seed, traced, err)
				}
				if !res.Correct || res.Attempted < 1 {
					return fmt.Errorf("%s seed %d traced=%v: %d of %d operations failed", name, seed, traced, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					return fmt.Errorf("%s seed %d traced=%v: %d metrics, want %v", name, seed, traced, len(res.Metrics), slices.Sorted(maps.Keys(res.Metrics)))
				}
				for _, d := range defs {
					if v := res.Metrics[d.name]; v.Unit != d.unit {
						return fmt.Errorf("%s seed %d: metric %s has unit %q, want %q", name, seed, d.name, v.Unit, d.unit)
					}
				}
			}
		}
		fmt.Fprintf(log, "selftest: %s ok\n", name)
	}
	return nil
}

// sequenceOf sets a workload up and digests its operation sequence.
func sequenceOf(name string, seed uint64) (uint64, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return 0, err
	}
	defer w.close()
	if _, err := w.setup(nil); err != nil {
		return 0, err
	}
	return w.sequenceHash(), nil
}
