package lru

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheEvictionOrder(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 missing")
	}
	c.Put(3, "c") // evicts 2 (least recently used)
	if _, ok := c.GetQuiet(2); ok {
		t.Fatal("2 not evicted")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatal("1 lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 0 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

// TestCacheLRU pins eviction order and stats.
func TestCacheLRU(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("a evicted out of order")
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatal("c missing")
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("stats = %d hits %d misses, want 3/1", hits, misses)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestCachePutRefreshes(t *testing.T) {
	c := New[string, int](4)
	c.Put("k", 1)
	c.Put("k", 2)
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("v = %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New[int, int](0)
}

func TestSingleflightCoalesces(t *testing.T) {
	var sf Singleflight[string, int]
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := sf.Do("key", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%d err=%v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Release the flight only once the 15 joiners are parked on it, so
	// none of them can arrive after it lands and run fn again.
	joined := func() int {
		sf.mu.Lock()
		defer sf.mu.Unlock()
		if fl, ok := sf.flights["key"]; ok {
			return fl.dups
		}
		return 0
	}
	for joined() < 15 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times", calls.Load())
	}
	if sharedCount.Load() != 15 {
		t.Fatalf("shared = %d, want 15", sharedCount.Load())
	}
}

func TestSingleflightSurvivesPanic(t *testing.T) {
	var sf Singleflight[int, int]
	func() {
		defer func() { recover() }()
		sf.Do(1, func() (int, error) { panic("boom") })
	}()
	// The flight must have landed: a later caller runs fresh instead of
	// blocking on a channel nobody closes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err, _ := sf.Do(1, func() (int, error) { return 9, nil }); err != nil || v != 9 {
			t.Errorf("post-panic call: v=%d err=%v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("caller after a panicked flight blocked forever")
	}
}

func TestSingleflightWaitersRepanic(t *testing.T) {
	var sf Singleflight[int, int]
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // flight owner: panics mid-flight
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("owner did not re-panic")
			}
		}()
		sf.Do(1, func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()

	<-started
	waiterDone := make(chan any, 1)
	wg.Add(1)
	go func() { // waiter: must observe the panic, not a zero value
		defer wg.Done()
		defer func() { waiterDone <- recover() }()
		sf.Do(1, func() (int, error) { return 0, nil })
	}()
	// Give the waiter a moment to join the flight, then detonate.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if r := <-waiterDone; r == nil {
		t.Fatal("waiter returned normally from a panicked flight")
	}
}

func TestSingleflightPropagatesError(t *testing.T) {
	var sf Singleflight[int, int]
	wantErr := errors.New("boom")
	_, err, _ := sf.Do(1, func() (int, error) { return 0, wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	// The key is forgotten after the flight: a second call runs again.
	v, err, _ := sf.Do(1, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("second call: v=%d err=%v", v, err)
	}
}

func TestCacheEvictionCounter(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	if n := c.Evictions(); n != 0 {
		t.Fatalf("evictions before overflow = %d", n)
	}
	c.Put(1, 10) // refresh, not an insert: must not evict
	if n := c.Evictions(); n != 0 {
		t.Fatalf("evictions after refresh = %d", n)
	}
	c.Put(3, 3)
	c.Put(4, 4)
	if n := c.Evictions(); n != 2 {
		t.Fatalf("evictions = %d, want 2", n)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
}

func TestStampsCarryAndRefresh(t *testing.T) {
	c := New[string, int](4)
	old := time.Now().Add(-time.Hour)
	c.PutStamped("peer-filled", 1, old)
	if _, at, ok := c.GetStamped("peer-filled"); !ok || !at.Equal(old) {
		t.Fatalf("GetStamped = (%v, %v), want carried-over stamp %v", at, ok, old)
	}
	before := time.Now()
	c.Put("fresh", 2)
	if _, at, ok := c.GetStamped("fresh"); !ok || at.Before(before) {
		t.Fatalf("Put stamp %v predates the Put (%v)", at, before)
	}
	// Refreshing an entry refreshes its stamp too: the value was
	// re-rendered, so its age restarts.
	c.PutStamped("peer-filled", 3, time.Now())
	if v, at, ok := c.GetStamped("peer-filled"); !ok || v != 3 || at.Equal(old) {
		t.Fatalf("refresh kept the old stamp (v=%d at=%v)", v, at)
	}
	if _, _, ok := c.GetStamped("absent"); ok {
		t.Fatal("GetStamped hit an absent key")
	}
}

func TestPeekIsInvisible(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2) // LRU order now: 2 (MRU), 1 (LRU)
	h0, m0 := c.Stats()
	if v, _, ok := c.Peek(1); !ok || v != 1 {
		t.Fatalf("Peek(1) = (%d, %v)", v, ok)
	}
	if _, _, ok := c.Peek(99); ok {
		t.Fatal("Peek hit an absent key")
	}
	if h, m := c.Stats(); h != h0 || m != m0 {
		t.Fatalf("Peek moved the counters: (%d,%d) -> (%d,%d)", h0, m0, h, m)
	}
	// Peek must not have promoted 1: inserting a third entry still evicts
	// it as the least recently used.
	c.Put(3, 3)
	if _, _, ok := c.Peek(1); ok {
		t.Fatal("Peek promoted the entry it peeked")
	}
}

func TestRangeOrderAndEarlyStop(t *testing.T) {
	c := New[int, int](3)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(3, 30)
	c.Get(1) // promote: MRU order is now 1, 3, 2
	var keys []int
	c.Range(func(k, v int, at time.Time) bool {
		if at.IsZero() {
			t.Errorf("entry %d has a zero stamp", k)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 2 {
		t.Fatalf("Range order = %v, want [1 3 2]", keys)
	}
	n := 0
	c.Range(func(int, int, time.Time) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range ignored early stop: %d calls", n)
	}
	// Reentrant fill: Range snapshots first, so f may Put into the same
	// cache family without deadlocking.
	dst := New[int, int](3)
	c.Range(func(k, v int, at time.Time) bool {
		dst.PutStamped(k, v, at)
		return true
	})
	if dst.Len() != 3 {
		t.Fatalf("snapshot/fill copied %d entries, want 3", dst.Len())
	}
}
