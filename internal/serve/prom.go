package serve

import (
	"fmt"
	"sort"
	"strings"
)

// Prometheus renders the metrics snapshot in the Prometheus text
// exposition format (version 0.0.4), the body /metrics serves when the
// client's Accept header asks for text/plain or OpenMetrics. The same
// snapshot backs both formats, so a scraper and a JSON reader always see
// one consistent view; output ordering is deterministic (sorted label
// values) so the body is diffable and testable.
func (m Metrics) Prometheus() []byte {
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, rows func()) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		rows()
	}

	gauge("ssdtrain_uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)

	names := make([]string, 0, len(m.Endpoints))
	for name := range m.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	counter("ssdtrain_requests_total", "Requests served, by endpoint and status class.", func() {
		for _, name := range names {
			ep := m.Endpoints[name]
			for _, c := range []struct {
				class string
				n     int64
			}{{"2xx", ep.Status2xx}, {"4xx", ep.Status4xx}, {"5xx", ep.Status5xx}} {
				fmt.Fprintf(&b, "ssdtrain_requests_total{endpoint=%q,class=%q} %d\n", name, c.class, c.n)
			}
		}
	})
	fmt.Fprintf(&b, "# HELP ssdtrain_request_latency_us Request latency quantiles in microseconds (upper bucket bound).\n# TYPE ssdtrain_request_latency_us gauge\n")
	for _, name := range names {
		ep := m.Endpoints[name]
		for _, q := range []struct {
			q string
			v int64
		}{{"0.5", ep.P50Us}, {"0.9", ep.P90Us}, {"0.99", ep.P99Us}} {
			fmt.Fprintf(&b, "ssdtrain_request_latency_us{endpoint=%q,quantile=%q} %d\n", name, q.q, q.v)
		}
	}

	counter("ssdtrain_coalesced_requests_total", "Requests answered by another request's in-flight simulation.", func() {
		fmt.Fprintf(&b, "ssdtrain_coalesced_requests_total %d\n", m.CoalescedRequests)
	})
	counter("ssdtrain_rejected_requests_total", "429 backpressure responses.", func() {
		fmt.Fprintf(&b, "ssdtrain_rejected_requests_total %d\n", m.RejectedRequests)
	})
	counter("ssdtrain_rejected_deadline_total", "503 deadline-expiry responses (brownout, distinct from 429 saturation).", func() {
		fmt.Fprintf(&b, "ssdtrain_rejected_deadline_total %d\n", m.RejectedDeadline)
	})
	counter("ssdtrain_stale_served_total", "Responses served past the staleness threshold and labeled stale.", func() {
		fmt.Fprintf(&b, "ssdtrain_stale_served_total %d\n", m.StaleServed)
	})
	counter("ssdtrain_peer_fill_total", "Peer cache-fill traffic, by event.", func() {
		fmt.Fprintf(&b, "ssdtrain_peer_fill_total{event=\"filled\"} %d\n", m.PeerFill.Filled)
		fmt.Fprintf(&b, "ssdtrain_peer_fill_total{event=\"miss\"} %d\n", m.PeerFill.Misses)
		fmt.Fprintf(&b, "ssdtrain_peer_fill_total{event=\"served_hit\"} %d\n", m.PeerFill.ServedHits)
		fmt.Fprintf(&b, "ssdtrain_peer_fill_total{event=\"served_miss\"} %d\n", m.PeerFill.ServedMisses)
	})
	counter("ssdtrain_batch_flushes_total", "Same-shape /v1/plan batches run.", func() {
		fmt.Fprintf(&b, "ssdtrain_batch_flushes_total %d\n", m.Batch.Flushes)
	})
	counter("ssdtrain_batched_requests_total", "Requests executed in a same-shape /v1/plan batch.", func() {
		fmt.Fprintf(&b, "ssdtrain_batched_requests_total %d\n", m.Batch.BatchedRequests)
	})

	counter("ssdtrain_cache_events_total", "Cache traffic, by cache and event.", func() {
		for _, c := range []struct {
			name string
			m    CacheMetrics
		}{{"plan", m.PlanCache}, {"result", m.ResultCache}, {"fleet", m.FleetCache}} {
			fmt.Fprintf(&b, "ssdtrain_cache_events_total{cache=%q,event=\"hit\"} %d\n", c.name, c.m.Hits)
			fmt.Fprintf(&b, "ssdtrain_cache_events_total{cache=%q,event=\"miss\"} %d\n", c.name, c.m.Misses)
			fmt.Fprintf(&b, "ssdtrain_cache_events_total{cache=%q,event=\"eviction\"} %d\n", c.name, c.m.Evictions)
		}
	})

	counter("ssdtrain_session_pool_total", "Execution-arena pool traffic, by event.", func() {
		fmt.Fprintf(&b, "ssdtrain_session_pool_total{event=\"hit\"} %d\n", m.Sessions.Hits)
		fmt.Fprintf(&b, "ssdtrain_session_pool_total{event=\"miss\"} %d\n", m.Sessions.Misses)
		fmt.Fprintf(&b, "ssdtrain_session_pool_total{event=\"eviction\"} %d\n", m.Sessions.Evictions)
	})
	gauge("ssdtrain_session_pool_idle", "Execution arenas currently retained in the pool.", float64(m.Sessions.Idle))

	counter("ssdtrain_span_snapshots_total", "Traced runs snapshotted by the flight recorder.", func() {
		fmt.Fprintf(&b, "ssdtrain_span_snapshots_total %d\n", m.Spans.Snapshots)
	})
	counter("ssdtrain_spans_total", "Spans delivered across all trace snapshots.", func() {
		fmt.Fprintf(&b, "ssdtrain_spans_total %d\n", m.Spans.Spans)
	})
	counter("ssdtrain_spans_dropped_total", "Spans lost to recorder ring overwrites.", func() {
		fmt.Fprintf(&b, "ssdtrain_spans_dropped_total %d\n", m.Spans.Dropped)
	})

	counter("ssdtrain_steady_state_runs_total", "Steady-state fast-path outcomes, by result.", func() {
		fmt.Fprintf(&b, "ssdtrain_steady_state_runs_total{result=\"hit\"} %d\n", m.SteadyState.Hits)
		fmt.Fprintf(&b, "ssdtrain_steady_state_runs_total{result=\"fallback_trace\"} %d\n", m.SteadyState.FallbackTrace)
		fmt.Fprintf(&b, "ssdtrain_steady_state_runs_total{result=\"fallback_faults\"} %d\n", m.SteadyState.FallbackFaults)
		fmt.Fprintf(&b, "ssdtrain_steady_state_runs_total{result=\"fallback_off\"} %d\n", m.SteadyState.FallbackOff)
		fmt.Fprintf(&b, "ssdtrain_steady_state_runs_total{result=\"fallback_no_convergence\"} %d\n", m.SteadyState.FallbackNoConvergence)
	})
	counter("ssdtrain_steady_state_extrapolated_steps_total", "Measured steps synthesized analytically instead of simulated.", func() {
		fmt.Fprintf(&b, "ssdtrain_steady_state_extrapolated_steps_total %d\n", m.SteadyState.ExtrapolatedSteps)
	})

	return []byte(b.String())
}

// Prometheus renders the router metrics snapshot in the Prometheus text
// exposition format, mirroring the replica rendering above so one scrape
// config covers both layers of a cluster.
func (m RouterMetrics) Prometheus() []byte {
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, rows func()) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		rows()
	}

	gauge("ssdtrain_router_uptime_seconds", "Seconds since the router started.", m.UptimeSeconds)

	names := make([]string, 0, len(m.Endpoints))
	for name := range m.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	counter("ssdtrain_router_requests_total", "Routed requests, by endpoint and status class.", func() {
		for _, name := range names {
			ep := m.Endpoints[name]
			for _, c := range []struct {
				class string
				n     int64
			}{{"2xx", ep.Status2xx}, {"4xx", ep.Status4xx}, {"5xx", ep.Status5xx}} {
				fmt.Fprintf(&b, "ssdtrain_router_requests_total{endpoint=%q,class=%q} %d\n", name, c.class, c.n)
			}
		}
	})

	counter("ssdtrain_router_attempts_total", "Upstream attempts, by kind (first try, retry, hedge).", func() {
		first := m.Attempts - m.Retries - m.Hedges
		fmt.Fprintf(&b, "ssdtrain_router_attempts_total{kind=\"first\"} %d\n", first)
		fmt.Fprintf(&b, "ssdtrain_router_attempts_total{kind=\"retry\"} %d\n", m.Retries)
		fmt.Fprintf(&b, "ssdtrain_router_attempts_total{kind=\"hedge\"} %d\n", m.Hedges)
	})
	counter("ssdtrain_router_hedge_wins_total", "Hedged attempts whose answer arrived before the primary's.", func() {
		fmt.Fprintf(&b, "ssdtrain_router_hedge_wins_total %d\n", m.HedgeWins)
	})
	counter("ssdtrain_router_retry_budget_exhausted_total", "Retries or hedges suppressed by an empty retry budget.", func() {
		fmt.Fprintf(&b, "ssdtrain_router_retry_budget_exhausted_total %d\n", m.RetryBudgetExhausted)
	})
	counter("ssdtrain_router_stale_total", "Total-failure fallbacks, by outcome (served from the last-good cache, or no body to serve).", func() {
		fmt.Fprintf(&b, "ssdtrain_router_stale_total{outcome=\"served\"} %d\n", m.StaleServed)
		fmt.Fprintf(&b, "ssdtrain_router_stale_total{outcome=\"miss\"} %d\n", m.StaleMisses)
	})

	gauge("ssdtrain_router_ring_replicas", "Healthy replicas currently on the consistent-hash ring.", float64(m.RingReplicas))
	counter("ssdtrain_router_ring_rebuilds_total", "Ring rebuilds triggered by replica health transitions.", func() {
		fmt.Fprintf(&b, "ssdtrain_router_ring_rebuilds_total %d\n", m.RingRebuilds)
	})

	fmt.Fprintf(&b, "# HELP ssdtrain_router_replica_healthy Replica health as seen by the registry (1 healthy, 0 ejected).\n# TYPE ssdtrain_router_replica_healthy gauge\n")
	for _, rep := range m.Replicas {
		v := 0
		if rep.Healthy {
			v = 1
		}
		fmt.Fprintf(&b, "ssdtrain_router_replica_healthy{replica=%q} %d\n", rep.ID, v)
	}
	counter("ssdtrain_router_replica_events_total", "Per-replica registry events, by kind.", func() {
		for _, rep := range m.Replicas {
			fmt.Fprintf(&b, "ssdtrain_router_replica_events_total{replica=%q,kind=\"probe\"} %d\n", rep.ID, rep.Probes)
			fmt.Fprintf(&b, "ssdtrain_router_replica_events_total{replica=%q,kind=\"failure\"} %d\n", rep.ID, rep.Failures)
			fmt.Fprintf(&b, "ssdtrain_router_replica_events_total{replica=%q,kind=\"ejection\"} %d\n", rep.ID, rep.Ejections)
			fmt.Fprintf(&b, "ssdtrain_router_replica_events_total{replica=%q,kind=\"readmission\"} %d\n", rep.ID, rep.Readmissions)
		}
	})

	return []byte(b.String())
}
