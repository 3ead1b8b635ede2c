package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ssdtrain/internal/lru"
)

// These tests pin the cancellation discipline of the admission layers
// under -race: a caller abandoning its request mid-queue-wait or
// mid-flight must never leak a slot or a queue token, and a singleflight
// joiner must never inherit a canceled owner's death as its own answer.

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
// the simulations they started run out — no slot or queue token may
// leak, whichever phase the cancellation hit.
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
	waitFor(t, "limiter drained", func() bool {
		return len(s.limiter.slots) == 0 && s.limiter.waiting() == 0
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
