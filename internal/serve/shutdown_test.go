package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRequestTimeoutAnswers503: a request whose end-to-end deadline
// expires while it waits for a worker slot gets 503 (retry later), not
// 422 (bad config) — and the same server keeps answering 200 once the
// slot frees up.
func TestRequestTimeoutAnswers503(t *testing.T) {
	srv := New(Options{Workers: 1, RequestTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if !srv.limiter.acquire(context.Background()) {
		t.Fatal("could not take the only worker slot")
	}
	start := time.Now()
	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "recompute"}}}
	resp, body := postJSON(t, ts.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-deadline request: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("503 body does not name the deadline: %s", body)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("answered in %v; the request should have waited out its deadline", waited)
	}
	srv.limiter.release()

	if resp, body := postJSON(t, ts.URL+"/v1/plan", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("after slot release: status %d: %s", resp.StatusCode, body)
	}
}

// slowServer is the graceful-shutdown fixture: one handler that blocks
// until released, served through ServeUntil on a loopback listener.
type slowServer struct {
	ln       net.Listener
	started  chan struct{} // closed when the slow handler is entered
	release  chan struct{} // close to let the slow handler answer
	servErr  chan error    // ServeUntil's return value
	shutdown context.CancelFunc
}

func startSlowServer(t *testing.T, drain time.Duration) *slowServer {
	t.Helper()
	ss := &slowServer{
		started: make(chan struct{}),
		release: make(chan struct{}),
		servErr: make(chan error, 1),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(ss.started)
		<-ss.release
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss.ln = ln
	ctx, cancel := context.WithCancel(context.Background())
	ss.shutdown = cancel
	hs := &http.Server{Handler: mux}
	go func() { ss.servErr <- ServeUntil(ctx, hs, ln, drain) }()
	return ss
}

// get fetches /slow in the background, reporting status and body.
func (ss *slowServer) get() chan error {
	out := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ss.ln.Addr().String() + "/slow")
		if err != nil {
			out <- err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && (resp.StatusCode != http.StatusOK || string(body) != "done") {
			err = errors.New("unexpected answer: " + resp.Status + " " + string(body))
		}
		out <- err
	}()
	return out
}

// waitRefused polls until new connections are refused (the drain began).
func (ss *slowServer) waitRefused(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", ss.ln.Addr().String())
		if err != nil {
			return
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after shutdown began")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulShutdownDrains: after the shutdown signal the listener
// closes at once, but the in-flight request still completes and
// ServeUntil reports a clean drain.
func TestGracefulShutdownDrains(t *testing.T) {
	ss := startSlowServer(t, 10*time.Second)
	inflight := ss.get()
	<-ss.started
	ss.shutdown()
	ss.waitRefused(t)
	close(ss.release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request not drained cleanly: %v", err)
	}
	if err := <-ss.servErr; err != nil {
		t.Fatalf("ServeUntil: %v", err)
	}
}

// TestGracefulShutdownDrainExpiry: a request that outlives the drain
// budget surfaces as context.DeadlineExceeded from ServeUntil — the
// operator learns the drain was dirty.
func TestGracefulShutdownDrainExpiry(t *testing.T) {
	ss := startSlowServer(t, 20*time.Millisecond)
	inflight := ss.get()
	<-ss.started
	ss.shutdown()
	if err := <-ss.servErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ServeUntil = %v, want DeadlineExceeded", err)
	}
	close(ss.release)
	<-inflight // outcome after a dirty drain is the client's problem
}
