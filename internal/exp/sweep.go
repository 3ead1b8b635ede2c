package exp

import (
	"fmt"

	"ssdtrain/internal/pool"
)

// Sweep executes a batch of measurements with deduplicated work at every
// level: specs that flatten to value-identical configs run once and
// share a result, configs that differ only in the cheap knobs listed on
// Plan share a compiled plan AND a pool of recycled execution arenas,
// and configs that share a model shape reuse one graph template.
// Results are returned in input order; duplicate configs receive the
// same *RunResult. workers bounds parallelism (0 = GOMAXPROCS); simulations
// are independent and deterministic, and sessions reset to a
// just-constructed state between points, so neither the worker count nor
// arena recycling ever changes the results, only the wall-clock time and
// the allocation bill. On error, the lowest-indexed failing config's
// error is returned (also independent of worker count), and a spec that
// does not flatten fails the sweep before anything runs.
func Sweep(workers int, specs []Spec) ([]*RunResult, error) {
	// Dedup identical configs (after defaulting, so spelled-out and
	// defaulted forms of one measurement coincide). slotOf maps each
	// input to the index of its distinct config in first-occurrence
	// order, so the lowest-indexed failing input is also the
	// lowest-ordered failing distinct config.
	index := make(map[RunConfig]int)
	var distinct []RunConfig
	slotOf := make([]int, len(specs))
	for i, spec := range specs {
		cfg, err := spec.RunConfig()
		if err != nil {
			return nil, fmt.Errorf("exp: spec %d: %w", i, err)
		}
		key := cfg.withDefaults()
		s, ok := index[key]
		if !ok {
			s = len(distinct)
			index[key] = s
			distinct = append(distinct, key)
		}
		slotOf[i] = s
	}

	// A sweep-local session pool: each worker recycles at most one arena
	// per plan shape across its items, so arena construction is paid
	// O(plans × workers) times instead of O(points).
	sp := NewSessionPool(0)
	runs, err := pool.ParallelMap(workers, distinct, sp.Execute)
	if err != nil {
		return nil, err
	}
	results := make([]*RunResult, len(specs))
	for i, s := range slotOf {
		results[i] = runs[s]
	}
	return results, nil
}
