package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/lru"
)

// These tests pin the cancellation discipline of the admission layers
// under -race: a caller abandoning its request mid-queue-wait, while
// queued behind a running batch or mid-flight must never leak a slot or
// a queue token, and a singleflight joiner must never inherit a canceled owner's
// death as its own answer.

// TestLimiterCancelMidQueueWait: waiters canceled while parked in the
// queue leave without a slot and return their queue tokens.
func TestLimiterCancelMidQueueWait(t *testing.T) {
	l := newLimiter(1, 4)
	if !l.acquire(context.Background()) {
		t.Fatal("empty limiter refused a slot")
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan bool, 4)
	for i := 0; i < 4; i++ {
		go func() { got <- l.acquire(ctx) }()
	}
	waitFor(t, "all waiters parked", func() bool { return l.waiting() == 4 })
	cancel()
	for i := 0; i < 4; i++ {
		if <-got {
			t.Fatal("canceled waiter acquired a slot")
		}
	}
	if l.waiting() != 0 {
		t.Fatalf("%d queue tokens leaked by canceled waiters", l.waiting())
	}
	l.release()
	if !l.acquire(context.Background()) {
		t.Fatal("slot not reusable after cancellations")
	}
	l.release()
}

// TestBatcherCancelWhileQueued: a member canceled while queued behind a
// running batch gets its own context error, while the next batch still
// runs for the members that stayed; afterwards the batcher has retired
// the shape and every worker slot and wait-line place is back.
func TestBatcherCancelWhileQueued(t *testing.T) {
	var mu sync.Mutex
	var batches [][]exp.RunConfig
	running := make(chan struct{})
	hold := make(chan struct{})
	exec := func(cfgs []exp.RunConfig) []exp.BatchResult {
		mu.Lock()
		batches = append(batches, cfgs)
		first := len(batches) == 1
		mu.Unlock()
		if first {
			close(running)
			<-hold
		}
		out := make([]exp.BatchResult, len(cfgs))
		for i := range out {
			out[i].Result = &exp.RunResult{}
		}
		return out
	}
	l := newLimiter(1, 4)
	b := newBatcher(exec, l, newStats(time.Now()))

	cfg := func(steps int) exp.RunConfig {
		c, err := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}, Run: RunRequest{Steps: steps}}}.RunConfig()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	runner, leaver, stayer := cfg(2), cfg(3), cfg(4)
	shape, err := exp.ShapeKey(runner)
	if err != nil {
		t.Fatal(err)
	}

	runnerErr := make(chan error, 1)
	go func() {
		_, err := b.run(context.Background(), runner)
		runnerErr <- err
	}()
	<-running
	ctx, cancel := context.WithCancel(context.Background())
	leaverErr := make(chan error, 1)
	go func() {
		_, err := b.run(ctx, leaver)
		leaverErr <- err
	}()
	stayerErr := make(chan error, 1)
	go func() {
		res, err := b.run(context.Background(), stayer)
		if err == nil && res == nil {
			err = errors.New("no result")
		}
		stayerErr <- err
	}()
	waitFor(t, "leaver and stayer queued behind the running batch", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.waiting[shape] != nil && len(b.waiting[shape].cfgs) == 2 && l.waiting() == 2
	})
	cancel()
	if err := <-leaverErr; err != context.Canceled {
		t.Fatalf("canceled member got %v, want context.Canceled", err)
	}
	close(hold)
	if err := <-runnerErr; err != nil {
		t.Fatalf("running member: %v", err)
	}
	if err := <-stayerErr; err != nil {
		t.Fatalf("staying member: %v", err)
	}
	waitFor(t, "batcher retired the shape", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.waiting) == 0
	})
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 || len(batches[0]) != 1 || len(batches[1]) != 2 {
		t.Fatalf("ran batches %v, want the running member alone, then both queued members", batches)
	}
	if len(l.slots) != 0 || l.waiting() != 0 {
		t.Fatalf("batcher leaked admission state: %d slots, %d queued", len(l.slots), l.waiting())
	}
}

// TestFlightJoinerSurvivesOwnerDeath: a joiner whose flight owner died
// of its own context must not inherit that death — it retries, becomes
// the new owner and produces the answer itself.
func TestFlightJoinerSurvivesOwnerDeath(t *testing.T) {
	s := New(Options{})
	cache := lru.New[string, []byte](8)
	var fl lru.Singleflight[string, stamped]

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerIn := make(chan struct{})
	ownerOut := make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := cachedBody(ownerCtx, s, cache, &fl, "k", func() (stamped, error) {
			close(ownerIn)
			<-ownerOut
			return stamped{}, ownerCtx.Err()
		})
		ownerErr <- err
	}()
	<-ownerIn

	joinerBody := make(chan []byte, 1)
	go func() {
		body, _, err := cachedBody(context.Background(), s, cache, &fl, "k", func() (stamped, error) {
			return stamped{body: []byte("fresh\n"), at: time.Now()}, nil
		})
		if err != nil {
			t.Errorf("joiner inherited the owner's death: %v", err)
		}
		joinerBody <- body
	}()
	// Give the joiner time to park on the owner's flight before killing
	// the owner; if it misses the join it simply owns its own flight and
	// the assertions still hold.
	time.Sleep(20 * time.Millisecond)
	cancelOwner()
	close(ownerOut)

	if err := <-ownerErr; err != context.Canceled {
		t.Fatalf("owner got %v, want its own context.Canceled", err)
	}
	if body := <-joinerBody; string(body) != "fresh\n" {
		t.Fatalf("joiner got %q, want the fresh body", body)
	}
}

// TestCanceledRequestsReturnSlots: a burst of requests whose clients
// give up almost immediately must leave the limiter fully drained once
// the simulations they started run out — no slot, queue token or
// batcher queue may leak, whichever phase the cancellation hit.
func TestCanceledRequestsReturnSlots(t *testing.T) {
	s := New(Options{Workers: 1, Queue: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}, Run: RunRequest{Steps: i%6 + 1}}}
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i+1)*time.Millisecond)
			defer cancel()
			blob, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
				return
			}
			hr, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/plan", bytes.NewReader(blob))
			if err != nil {
				t.Error(err)
				return
			}
			hr.Header.Set("Content-Type", "application/json")
			if resp, err := http.DefaultClient.Do(hr); err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, "limiter and batcher drained", func() bool {
		s.batcher.mu.Lock()
		defer s.batcher.mu.Unlock()
		return len(s.limiter.slots) == 0 && s.limiter.waiting() == 0 && len(s.batcher.waiting) == 0
	})
}

// waitFor polls cond until it holds or the test deadline budget runs
// out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
