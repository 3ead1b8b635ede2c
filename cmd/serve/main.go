// Command serve runs the what-if planning service: an HTTP/JSON API over
// the experiment harness answering single-run plans (/v1/plan),
// cheap-knob sweeps streamed as NDJSON (/v1/sweep), fleet scheduling
// what-ifs (/v1/fleet) and flight-recorder traces (/v1/trace), with
// /metrics exposing every cache, pool and dedup counter behind them (JSON
// by default, Prometheus text under Accept: text/plain). Concurrent
// identical requests coalesce into one simulation; every simulation runs
// on a recycled execution arena under one of -workers slots, up to
// -queue more requests wait for a slot, and beyond that the server
// answers 429 with Retry-After.
//
// Usage:
//
//	serve [-addr :8080] [-workers N] [-queue N] [-cache N]
//	      [-max-idle-sessions N] [-pprof]
//	      [-request-timeout 2m] [-drain-timeout 15s]
//
// Every request carries an end-to-end deadline (queue wait included);
// expiry answers 503 so clients can tell "too slow right now" from "bad
// config". SIGINT/SIGTERM drains: the listener closes at once and
// in-flight requests get -drain-timeout to finish.
//
// /debug/buildinfo always reports the binary's module and VCS stamp;
// -pprof additionally mounts net/http/pprof under /debug/pprof/ (off by
// default — profiles are a debugging surface, not a public API).
//
// Self-check mode starts the server on an ephemeral port, drives it with
// the built-in load generator, exercises /v1/trace and /debug/buildinfo,
// and exits non-zero unless the run was clean (zero 5xx, zero body
// mismatches, well-formed trace JSON) and the caching layers did their
// job (singleflight dedup observed):
//
//	serve -selfcheck [-n 200] [-c 8]
//
// Cluster modes (internal/cluster). A replica in a sharded cluster
// announces itself and its peers so cold cache misses peer-fill over
// /v1/cachefill instead of re-simulating:
//
//	serve -replica-id r0 -peers http://h1:8080,http://h2:8080
//
// Router mode serves no simulations itself: it consistent-hash routes
// /v1/plan, /v1/sweep, /v1/trace and /v1/fleet across the replica set,
// health-probes and ejects/readmits replicas, retries with jittered
// backoff under a retry budget, hedges the tail, and degrades to
// labeled stale bodies rather than 5xx on total shard loss:
//
//	serve -router -replicas r0=http://h1:8080,r1=http://h2:8080
//
// The cluster self-check runs the full chaos drill in-process — N
// replicas behind a router, one killed and restarted mid-wave — and
// exits non-zero on any 5xx, any non-byte-identical body, zero hedges,
// zero peer cache-fills, or an unlabeled stale response:
//
//	serve -selfcheck-cluster [-cluster-replicas 3] [-wave 2s]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"strings"

	"ssdtrain/internal/cluster"
	"ssdtrain/internal/exp"
	"ssdtrain/internal/serve"
)

// splitList parses a comma-separated flag into its non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a worker before 429 (0 = default 64)")
	cache := flag.Int("cache", 0, "result cache capacity in rendered bodies (0 = default 1024)")
	maxIdle := flag.Int("max-idle-sessions", 0, "execution arena pool size (0 = default 32)")
	writeTimeout := flag.Duration("write-timeout", 5*time.Minute, "per-request response deadline; bounds how long a stalled client can pin a connection (0 = none)")
	requestTimeout := flag.Duration("request-timeout", 0, "end-to-end deadline per request, queue wait included; expiry answers 503 (0 = default 2m, negative = none)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "on SIGINT/SIGTERM, how long in-flight requests get to finish (0 = wait indefinitely)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	selfcheck := flag.Bool("selfcheck", false, "start on an ephemeral port, run the load generator against it, verify, exit")
	n := flag.Int("n", 200, "selfcheck: total plan requests")
	c := flag.Int("c", 8, "selfcheck: client concurrency")
	replicaID := flag.String("replica-id", "", "this replica's cluster identity, echoed as "+serve.HeaderReplica+" (empty = standalone)")
	peers := flag.String("peers", "", "comma-separated peer base URLs for cache peer-fill over /v1/cachefill")
	staleAfter := flag.Duration("stale-after", 0, "label cached bodies older than this with "+serve.HeaderStale+" (0 = never)")
	routerMode := flag.Bool("router", false, "run the consistent-hash cluster router instead of a planning replica (requires -replicas)")
	replicaSet := flag.String("replicas", "", "router: comma-separated id=url replica set")
	selfcheckCluster := flag.Bool("selfcheck-cluster", false, "run the in-process chaos drill (kill + restart a replica mid-load), verify, exit")
	clusterReplicas := flag.Int("cluster-replicas", 3, "selfcheck-cluster: replica count")
	wave := flag.Duration("wave", 2*time.Second, "selfcheck-cluster: load wave duration around the kill")
	flag.Parse()

	if *selfcheckCluster {
		os.Exit(runClusterSelfcheck(*clusterReplicas, *wave))
	}
	if *routerMode {
		os.Exit(runRouter(*addr, *replicaSet, *drainTimeout, *writeTimeout))
	}

	srv := serve.New(serve.Options{
		Workers:         *workers,
		Queue:           *queue,
		CacheCapacity:   *cache,
		MaxIdleSessions: *maxIdle,
		RequestTimeout:  *requestTimeout,
		ReplicaID:       *replicaID,
		Peers:           splitList(*peers),
		StaleAfter:      *staleAfter,
	})
	handler := buildHandler(srv, *pprofOn)

	if *selfcheck {
		os.Exit(runSelfcheck(handler, *n, *c))
	}

	// Handlers never hold worker slots across response writes, so a slow
	// client costs a connection, not a slot; the timeouts bound even that.
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("serve: listen: %v", err)
	}
	// SIGINT/SIGTERM stops accepting and drains in-flight requests; a
	// second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("serve: listening on %s", ln.Addr())
	switch err := serve.ServeUntil(ctx, hs, ln, *drainTimeout); {
	case err == nil:
		log.Printf("serve: drained, bye")
	case ctx.Err() != nil:
		log.Fatalf("serve: shutdown: %v", err)
	default:
		log.Fatalf("serve: %v", err)
	}
}

// buildHandler wraps the API handler with the process-debugging surface:
// /debug/buildinfo always, /debug/pprof/ only when asked for. The pprof
// handlers are mounted on this private mux, never the default one, so no
// stray import can expose profiles the flag did not.
func buildHandler(srv *serve.Server, pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/buildinfo", handleBuildinfo)
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleBuildinfo answers which binary is serving: module path and
// version plus the VCS stamp, as JSON. Answering "what exactly is
// deployed" is the first question of any incident.
func handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		http.Error(w, "build info unavailable", http.StatusInternalServerError)
		return
	}
	body := struct {
		Path      string            `json:"path"`
		Version   string            `json:"version"`
		GoVersion string            `json:"go_version"`
		Settings  map[string]string `json:"settings,omitempty"`
	}{Path: info.Main.Path, Version: info.Main.Version, GoVersion: info.GoVersion}
	body.Settings = make(map[string]string)
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified", "GOARCH", "GOOS":
			body.Settings[s.Key] = s.Value
		}
	}
	blob, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(blob, '\n'))
}

// runSelfcheck is the CI smoke: a real server on a loopback listener, a
// real load run through the HTTP stack, and hard assertions on the
// outcome.
func runSelfcheck(handler http.Handler, n, c int) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Printf("selfcheck: listen: %v", err)
		return 1
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	log.Printf("selfcheck: server on %s, driving %d requests from %d workers", base, n, c)

	start := time.Now()
	rep, err := serve.RunLoad(serve.LoadOptions{BaseURL: base, Requests: n, Concurrency: c})
	if err != nil {
		log.Printf("selfcheck: load run failed: %v", err)
		return 1
	}
	fmt.Print(rep.String())
	log.Printf("selfcheck: finished in %v", time.Since(start).Round(time.Millisecond))

	failed := false
	fail := func(format string, args ...any) {
		log.Printf("selfcheck FAIL: "+format, args...)
		failed = true
	}
	if rep.Status5xx > 0 || rep.Server5xx > 0 {
		fail("%d client-observed / %d server-observed 5xx responses, want 0", rep.Status5xx, rep.Server5xx)
	}
	if rep.TransportErrors > 0 {
		fail("%d transport errors, want 0", rep.TransportErrors)
	}
	if rep.Mismatches > 0 {
		fail("%d response mismatches, want 0", rep.Mismatches)
	}
	if rep.SweepErrors > 0 {
		// On this dedicated idle server no sweep point has any excuse to
		// error (a shared production server might legitimately answer
		// saturation inline; serve_client therefore only warns).
		fail("%d sweep points answered with inline errors, want 0", rep.SweepErrors)
	}
	if rep.Coalesced == 0 {
		fail("singleflight dedup never fired (coalesced = 0)")
	}
	if rep.Status2xx == 0 {
		fail("no successful requests")
	}
	if err := checkTrace(base); err != nil {
		fail("trace endpoint: %v", err)
	}
	if err := checkBuildinfo(base); err != nil {
		fail("buildinfo endpoint: %v", err)
	}
	steady := exp.GlobalSteadyStats()
	if steady.Hits == 0 {
		fail("steady-state fast path never fired across the driven plans (hits = 0)")
	}
	if failed {
		return 1
	}
	log.Printf("selfcheck: OK (dedup %d, result-cache hits %d, session hits %d, steady-state hits %d, trace + buildinfo well-formed, zero 5xx)",
		rep.Coalesced, rep.ResultCacheHits, rep.SessionHits, steady.Hits)
	return 0
}

// checkTrace POSTs a planning question to /v1/trace and validates the
// answer strictly as Chrome trace-event JSON: the container parses, the
// event list is non-empty, and every event carries the keys the viewers
// require. A malformed trace fails the selfcheck — a trace nobody can
// load is worse than none.
func checkTrace(base string) error {
	req := `{"spec":{"model":{"arch":"bert","hidden":2048,"layers":2,"batch":4},"offload":{"strategy":"ssdtrain"}}}`
	resp, err := http.Post(base+"/v1/trace", "application/json", bytes.NewReader([]byte(req)))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		DisplayTimeUnit string                       `json:"displayTimeUnit"`
		TraceEvents     []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("not trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("empty traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "pid"} {
			if _, ok := ev[key]; !ok {
				return fmt.Errorf("event %d missing %q", i, key)
			}
		}
		// Every event except process-level metadata names its thread.
		if _, ok := ev["tid"]; !ok && string(ev["ph"]) != `"M"` {
			return fmt.Errorf("event %d missing \"tid\"", i)
		}
	}
	log.Printf("selfcheck: /v1/trace OK (%d events, %d bytes)", len(doc.TraceEvents), len(body))
	return nil
}

// runRouter serves the consistent-hash cluster front: no simulations of
// its own, every answer routed, retried, hedged or served stale from
// the replica set.
func runRouter(addr, replicaSet string, drainTimeout, writeTimeout time.Duration) int {
	var replicas []cluster.Replica
	for _, ent := range splitList(replicaSet) {
		id, url, ok := strings.Cut(ent, "=")
		if !ok || id == "" || url == "" {
			log.Printf("router: bad -replicas entry %q, want id=url", ent)
			return 1
		}
		replicas = append(replicas, cluster.Replica{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	if len(replicas) == 0 {
		log.Printf("router: -router needs a -replicas id=url list")
		return 1
	}
	rt, err := cluster.NewRouter(cluster.Options{Replicas: replicas})
	if err != nil {
		log.Printf("router: %v", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx)
	hs := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("router: listen: %v", err)
		return 1
	}
	log.Printf("router: fronting %d replicas on %s", len(replicas), ln.Addr())
	switch err := serve.ServeUntil(ctx, hs, ln, drainTimeout); {
	case err == nil:
		log.Printf("router: drained, bye")
		return 0
	default:
		log.Printf("router: %v", err)
		return 1
	}
}

// runClusterSelfcheck is the CI chaos gate: the full in-process drill —
// replicas behind a router, a kill and a cold restart mid-wave — with
// the pass/fail verdict owned by cluster.RunDrill.
func runClusterSelfcheck(replicas int, wave time.Duration) int {
	rep, err := cluster.RunDrill(os.Stderr, cluster.DrillOptions{
		Replicas:     replicas,
		WaveDuration: wave,
	})
	if err != nil {
		log.Printf("selfcheck-cluster FAIL: %v", err)
		return 1
	}
	log.Printf("selfcheck-cluster: OK (%d replicas, %d wave requests at %.0f req/s, p99 %dus during kill, recovery %dms, %d hedges, %d peer fills, stale serving verified)",
		rep.Replicas, rep.WaveRequests, rep.AggregateReqPerS, rep.P99DuringKillUs, rep.RecoveryMs, rep.Hedges, rep.PeerFills)
	return 0
}

// checkBuildinfo verifies the always-on debug endpoint answers JSON.
func checkBuildinfo(base string) error {
	resp, err := http.Get(base + "/debug/buildinfo")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var info struct {
		Path      string `json:"path"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("not JSON: %v", err)
	}
	if info.Path == "" || info.GoVersion == "" {
		return fmt.Errorf("incomplete build info: %s", body)
	}
	return nil
}
