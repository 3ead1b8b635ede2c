// Package lru provides the concurrency-safe LRU cache and the
// singleflight call deduplicator shared by the layers that memoize
// simulation work: the fleet profiler's measurement cache and the
// experiment harness's compiled run-plan cache. Both structures exist for
// the same reason the paper's framework caches its offload plans — the
// simulator should never pay twice for work that is a pure function of
// its inputs.
package lru

import (
	"container/list"
	"sync"
	"time"
)

// Cache is a concurrency-safe LRU cache. Every entry carries the wall
// clock of the Put that created it, so a consumer serving cached bodies
// can label how old an answer is (the serve layer's stale-serve
// contract) and a peer filling its cache from another replica can
// preserve the original render time instead of laundering it as fresh.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	capacity     int
	ll           *list.List
	index        map[K]*list.Element
	hits, misses int64
	evictions    int64
}

type entry[K comparable, V any] struct {
	key K
	val V
	// at is when the value was rendered: the Put time, or the upstream
	// stamp a PutStamped caller carried over from a peer.
	at time.Time
}

// New creates an LRU cache holding at most capacity entries; a zero or
// negative capacity panics, because a cacheless memo would silently rerun
// every computation.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: cache capacity must be positive")
	}
	return &Cache[K, V]{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[K]*list.Element),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	v, _, ok := c.GetStamped(k)
	return v, ok
}

// GetStamped is Get plus the entry's render stamp (the Put time, or the
// carried-over stamp of a PutStamped fill).
func (c *Cache[K, V]) GetStamped(k K) (V, time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*entry[K, V])
		return e.val, e.at, true
	}
	c.misses++
	var zero V
	return zero, time.Time{}, false
}

// GetQuiet is Get without touching the hit/miss counters, for
// double-checked paths whose first Get already counted the lookup.
func (c *Cache[K, V]) GetQuiet(k K) (V, bool) {
	v, _, ok := c.GetQuietStamped(k)
	return v, ok
}

// GetQuietStamped is GetStamped without touching the hit/miss counters.
func (c *Cache[K, V]) GetQuietStamped(k K) (V, time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		return e.val, e.at, true
	}
	var zero V
	return zero, time.Time{}, false
}

// Peek returns the cached value and stamp without counting the lookup or
// promoting the entry. Peer cache-fill scans answer through it so another
// replica's warmup traffic cannot distort this cache's recency order or
// its hit-rate accounting.
func (c *Cache[K, V]) Peek(k K) (V, time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[k]; ok {
		e := el.Value.(*entry[K, V])
		return e.val, e.at, true
	}
	var zero V
	return zero, time.Time{}, false
}

// Put inserts or refreshes a value stamped with the current time,
// evicting the least recently used entry when the cache is full.
func (c *Cache[K, V]) Put(k K, v V) {
	c.PutStamped(k, v, time.Now())
}

// PutStamped is Put with an explicit render stamp, for fills whose value
// was rendered elsewhere (a peer cache-fill carries the original
// replica's stamp so staleness is measured from the render, not the
// copy).
func (c *Cache[K, V]) PutStamped(k K, v V, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[k]; ok {
		e := el.Value.(*entry[K, V])
		e.val = v
		e.at = at
		c.ll.MoveToFront(el)
		return
	}
	c.index[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v, at: at})
	if c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.index, last.Value.(*entry[K, V]).key)
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit and miss counts.
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many entries capacity pressure has pushed out.
// Observing it from outside (the serve /metrics endpoint does) is what
// distinguishes "the cache is big enough" from "every miss is a
// capacity miss re-paying a simulation".
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Singleflight coalesces concurrent calls with equal keys into one
// execution: the first caller runs fn, later callers with the same key
// block and receive the same result. Unlike a cache it remembers nothing —
// once the flight lands its key is forgotten, so the caller decides what
// (if anything) to memoize. Pairing it with a Cache turns "concurrent
// identical requests race to fill the LRU, each paying a full simulation"
// into "one simulation, shared by everyone who asked while it ran".
type Singleflight[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	// panicked records a panic value from fn so waiters can re-panic
	// instead of silently receiving the zero value.
	panicked any
	// dups counts the callers that joined the flight (guarded by the
	// Singleflight's mu).
	dups int
}

// Do executes fn under the key, coalescing with any in-progress call for
// the same key. It reports whether this caller shared another caller's
// execution.
func (s *Singleflight[K, V]) Do(key K, fn func() (V, error)) (v V, err error, shared bool) {
	s.mu.Lock()
	if s.flights == nil {
		s.flights = make(map[K]*flight[V])
	}
	if fl, ok := s.flights[key]; ok {
		fl.dups++
		s.mu.Unlock()
		<-fl.done
		if fl.panicked != nil {
			// The owner's fn panicked; a zero value with a nil error
			// would be silently wrong, so waiters re-panic like the
			// owner did (x/sync/singleflight semantics).
			panic(fl.panicked)
		}
		return fl.val, fl.err, true
	}
	fl := &flight[V]{done: make(chan struct{})}
	s.flights[key] = fl
	s.mu.Unlock()

	// Land the flight even if fn panics: leaving the entry in place would
	// park every later caller for this key on a channel nobody closes.
	// The panic is recorded for waiters and re-raised for the owner.
	defer func() {
		if r := recover(); r != nil {
			fl.panicked = r
		}
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(fl.done)
		if fl.panicked != nil {
			panic(fl.panicked)
		}
	}()
	fl.val, fl.err = fn()
	return fl.val, fl.err, false
}
