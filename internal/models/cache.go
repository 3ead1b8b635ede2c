package models

import (
	"runtime"
	"sync"
	"weak"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/gpu"
)

// graphKey identifies a built graph template: the full model configuration
// plus everything the cost model folds into kernel times. Two Build calls
// with equal keys produce graphs that differ only in weight storage
// identity, so one immutable template can serve both.
type graphKey struct {
	cfg  Config
	cost gpu.CostModel // value copy: Spec + calibration scalars
}

// graphCache shares Build results. Templates are immutable, so the
// cache never goes stale and is safe to share between goroutines (fleet
// profiling builds graphs concurrently). It holds templates weakly: one
// lives as long as some caller (a compiled plan) holds it, so the cache
// is bounded by its callers' caches instead of a size of its own.
type graphCache struct {
	mu     sync.Mutex
	graphs map[graphKey]weak.Pointer[autograd.Graph]
	hits   int64
	builds int64
}

var sharedGraphs = &graphCache{graphs: make(map[graphKey]weak.Pointer[autograd.Graph])}

// Template returns the immutable graph template for the configuration,
// shared by every caller asking for the same (config, cost model) while
// any of them holds it. The first call per key pays construction and
// validation, later ones a map lookup. Callers read the template and
// execute a CloneWithFreshWeights of it, never the template itself.
func Template(cfg Config, cost *gpu.CostModel) (*autograd.Graph, error) {
	key := graphKey{cfg: cfg, cost: *cost}
	c := sharedGraphs
	c.mu.Lock()
	if tmpl := c.graphs[key].Value(); tmpl != nil {
		c.hits++
		c.mu.Unlock()
		return tmpl, nil
	}
	c.mu.Unlock()
	built, err := Build(cfg, cost)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.builds++
	if tmpl := c.graphs[key].Value(); tmpl != nil {
		// A concurrent builder won the race; adopt its template so all
		// callers share one module tree.
		return tmpl, nil
	}
	c.graphs[key] = weak.Make(built)
	runtime.AddCleanup(built, c.forget, key)
	return built, nil
}

// forget drops a collected template's entry, unless a later build has
// already replaced it.
func (c *graphCache) forget(key graphKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.graphs[key].Value() == nil {
		delete(c.graphs, key)
	}
}

// GraphCacheStats reports template cache hits and full builds since
// process start, for benchmark assertions and capacity planning.
func GraphCacheStats() (hits, builds int64) {
	sharedGraphs.mu.Lock()
	defer sharedGraphs.mu.Unlock()
	return sharedGraphs.hits, sharedGraphs.builds
}
