package serve

import (
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// firstSeen numbers the first-seen shapes the allocation test asks for.
// It is package state so that a repeated run (-count) asks for shapes the
// process has not compiled yet.
var firstSeen int

// TestPlanRequestAllocs pins the heap objects the server allocates per
// /v1/plan request, for each request class: a cached hit, a warm miss (a
// shape already simulated, asked with a new SSD bandwidth share) and a
// first-seen shape (compile, a fresh arena, one simulation). The handler
// is driven in process, so no client or transport allocates in the
// window; the request and its recorder count in every class. A
// first-seen request took 866 objects before cold arenas were built from
// slabs; its ceiling is a third of that. A warm miss took 76 objects
// (83 under the race detector) while same-shape misses were grouped
// into batches on their way to the session pool, and 64 (71 under race)
// once each ran alone; its ceiling sits between. Each count is the
// fewest of a few tries of 100 requests on one P: a request that
// allocates more shows in every try.
func TestPlanRequestAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := New(Options{Workers: 1}).Handler()
	send := func(body string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/plan", strings.NewReader(body)))
		if rr.Code != 200 {
			t.Fatalf("%s: %d %s", body, rr.Code, rr.Body.String())
		}
	}
	const shape = `"model":{"arch":"gpt","hidden":%d,"layers":3,"batch":%d,"seq_len":512},"offload":{"strategy":"ssdtrain"}`
	hit := fmt.Sprintf(`{"spec":{`+shape+`}}`, 1024, 3)
	share := 0
	classes := []struct {
		name  string
		body  func() string
		limit float64
	}{
		{"hit", func() string { return hit }, 48},
		{"warm-miss", func() string {
			share++
			return fmt.Sprintf(`{"spec":{`+shape+`,"inject":{"ssd_bandwidth_share":%v}}}`, 1024, 3, 0.5+float64(share)*1e-4)
		}, 75},
		{"first-seen", func() string {
			firstSeen++
			// Heads must divide by the default TP of 2.
			return fmt.Sprintf(`{"spec":{`+shape+`}}`, 1280+256*(firstSeen%64), 3+firstSeen/64)
		}, 866 / 3},
	}
	for _, c := range classes {
		send(c.body())
	}
	for _, c := range classes {
		best := math.Inf(1)
		for try := 0; try < 3 && best > c.limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 100; i++ {
				send(c.body())
			}
			runtime.ReadMemStats(&after)
			best = min(best, float64(after.Mallocs-before.Mallocs)/100)
		}
		t.Logf("%s: %.1f objects per request", c.name, best)
		if best > c.limit {
			t.Errorf("a %s request allocates %.1f objects, more than its ceiling of %.0f", c.name, best, c.limit)
		}
	}
}
