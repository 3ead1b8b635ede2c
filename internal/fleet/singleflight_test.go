package fleet

import (
	"reflect"
	"sync"
	"testing"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
)

// TestProfilerSingleflightRace hammers one profile key from many
// goroutines (run under -race in CI) and asserts exactly one measurement
// executed: concurrent identical requests share a single simulation
// instead of racing the LRU.
func TestProfilerSingleflightRace(t *testing.T) {
	prof := NewProfiler(0)
	node := DefaultNodeSpec()
	run := exp.RunConfig{Model: models.PaperConfig(models.BERT, 2048, 2, 4), Strategy: exp.SSDTrain}

	const callers = 32
	results := make([]Profile, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := prof.Measure(run, node, 0.5, 0)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = p
		}(i)
	}
	wg.Wait()

	if got := prof.Runs(); got != 1 {
		t.Fatalf("measurement ran %d times, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d received a different profile", i)
		}
	}
	// Everyone except the flight owner either coalesced onto the flight
	// or arrived after the cache was filled.
	if prof.Coalesced() > callers-1 {
		t.Fatalf("coalesced = %d", prof.Coalesced())
	}
}

// TestProfilerSingleflightDistinctKeys asserts distinct keys do not
// coalesce: shares map to separate simulations.
func TestProfilerSingleflightDistinctKeys(t *testing.T) {
	prof := NewProfiler(0)
	node := DefaultNodeSpec()
	run := exp.RunConfig{Model: models.PaperConfig(models.BERT, 2048, 2, 4), Strategy: exp.SSDTrain}
	shares := []float64{1, 0.5, 0.25, 0.125}

	var wg sync.WaitGroup
	for _, s := range shares {
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(s float64) {
				defer wg.Done()
				if _, err := prof.Measure(run, node, s, 0); err != nil {
					t.Error(err)
				}
			}(s)
		}
	}
	wg.Wait()
	if got := prof.Runs(); got != int64(len(shares)) {
		t.Fatalf("runs = %d, want %d", got, len(shares))
	}
}
