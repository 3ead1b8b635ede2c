package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ssdtrain/internal/exp"
)

// TestTraceEndpoint pins /v1/trace: the body is byte-identical to the
// Chrome export of a fresh traced Plan.Execute of the same config, and it
// parses as the trace-event container format.
func TestTraceEndpoint(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}}}
	cfg, err := req.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := exp.TraceOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.ChromeJSON()

	resp, body := postJSON(t, ts.URL+"/v1/trace", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("served trace differs from fresh traced Plan.Execute (%d vs %d bytes)", len(body), len(want))
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace body is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Serving a trace must not have poisoned the plan path: the same
	// config's /v1/plan body still matches an untraced fresh execute.
	if resp, got := postJSON(t, ts.URL+"/v1/plan", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan after trace: status %d: %s", resp.StatusCode, got)
	} else if fresh := freshBody(t, req); !bytes.Equal(got, fresh) {
		t.Error("plan body after a traced run differs from fresh Plan.Execute")
	}
}

// TestTraceEndpointValidation pins /v1/trace's 4xx surface.
func TestTraceEndpointValidation(t *testing.T) {
	srv := New(Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/trace: status %d, want 405", resp.StatusCode)
	}

	bad := `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"teleport"}}}`
	resp, err = http.Post(ts.URL+"/v1/trace", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad strategy: status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsJSONShape pins the default /metrics rendering discipline:
// the body is exactly MarshalIndent of the decoded snapshot (so adding
// Prometheus negotiation changed nothing for JSON clients), and the span
// counters move after traced work.
func TestMetricsJSONShape(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "ssdtrain"}}}
	if resp, body := postJSON(t, ts.URL+"/v1/trace", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	rerendered, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(rerendered, '\n')) {
		t.Error("/metrics JSON body is not the canonical MarshalIndent rendering")
	}
	// Span totals are process-global, so only a lower bound is
	// assertable: the traced run's snapshot must show up.
	if m.Spans.Snapshots == 0 || m.Spans.Spans == 0 {
		t.Errorf("span metrics did not move after a traced run: %+v", m.Spans)
	}
	if ep := m.Endpoints["trace"]; ep.Count != 1 || ep.Status2xx != 1 {
		t.Errorf("trace endpoint counters: %+v", ep)
	}
}

// TestMetricsPrometheus pins the Accept negotiation: text/plain (or
// OpenMetrics) selects the Prometheus exposition, anything else keeps
// JSON, and the text body carries the counters the JSON body does.
func TestMetricsPrometheus(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := PlanRequest{Spec: SpecRequest{Model: smallModel(), Offload: OffloadRequest{Strategy: "no-offload"}}}
	if resp, body := postJSON(t, ts.URL+"/v1/plan", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", resp.StatusCode, body)
	}

	get := func(accept string) (*http.Response, string) {
		r, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	for _, accept := range []string{"text/plain", "application/openmetrics-text"} {
		resp, body := get(accept)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("Accept %q: content type %q", accept, ct)
		}
		for _, want := range []string{
			"# TYPE ssdtrain_requests_total counter",
			`ssdtrain_requests_total{endpoint="plan",class="2xx"} 1`,
			"ssdtrain_spans_total",
			"ssdtrain_session_pool_total",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("Accept %q: exposition missing %q", accept, want)
			}
		}
		// Every non-comment line is "name{labels} value" — one space.
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if fields := strings.Split(line, " "); len(fields) != 2 {
				t.Errorf("malformed exposition line %q", line)
			}
		}
	}

	// No Accept (and JSON Accept) keep the original JSON body.
	for _, accept := range []string{"", "application/json"} {
		resp, body := get(accept)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Accept %q: content type %q", accept, ct)
		}
		var m Metrics
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Errorf("Accept %q: body not JSON: %v", accept, err)
		}
	}
}
