package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/fleet"
	"ssdtrain/internal/units"
)

// FleetRequest is the body of POST /v1/fleet: a cluster-scale what-if —
// a seeded heterogeneous job mix scheduled under one or more policies on
// nodes whose NVMe arrays (and optionally DRAM) are contended. The
// server's fleet profiler is shared across requests, so repeated
// what-ifs over similar mixes reuse each other's per-job measurements.
type FleetRequest struct {
	Nodes int `json:"nodes,omitempty"` // default 4
	GPUs  int `json:"gpus,omitempty"`  // per node; default node's 4
	// DRAMGiB overrides the per-node pinned-pool budget in GiB
	// (nil = default node's 512, 0 = unmodeled).
	DRAMGiB    *float64 `json:"dram_gib,omitempty"`
	Jobs       int      `json:"jobs,omitempty"` // default 16
	Seed       int64    `json:"seed,omitempty"` // default 1
	HybridFrac float64  `json:"hybrid_frac,omitempty"`
	// Policies defaults to every scheduler (fifo, sjf, backfill).
	Policies       []string `json:"policies,omitempty"`
	MinSteps       int      `json:"steps_min,omitempty"`
	MaxSteps       int      `json:"steps_max,omitempty"`
	SubmitSpreadMs int64    `json:"submit_spread_ms,omitempty"`
	// Faults is a fault plan in the cmd/fleet -faults syntax (e.g.
	// "death@30s:node0:dev1,drain@2m:node1:5m,ckpt=25"); empty injects
	// nothing.
	Faults string `json:"faults,omitempty"`
}

// normalize fills defaults, validates policies, and renders the
// canonical cache/singleflight key (value-identical requests coincide).
func (r FleetRequest) normalize() (FleetRequest, string, error) {
	if r.Nodes == 0 {
		r.Nodes = 4
	}
	if r.Nodes < 0 || r.Nodes > 1024 {
		return r, "", fmt.Errorf("serve: fleet nodes %d outside [1, 1024]", r.Nodes)
	}
	if r.Jobs == 0 {
		r.Jobs = 16
	}
	if r.Jobs < 0 || r.Jobs > 4096 {
		return r, "", fmt.Errorf("serve: fleet jobs %d outside [1, 4096]", r.Jobs)
	}
	// GPUs bounds profiling cost directly: array-contended jobs are
	// profiled at every share 1/t for t = 1..GPUs.
	if r.GPUs < 0 || r.GPUs > maxFleetGPUs {
		return r, "", fmt.Errorf("serve: fleet gpus %d outside [0, %d]", r.GPUs, maxFleetGPUs)
	}
	if r.MinSteps < 0 || r.MinSteps > maxFleetSteps || r.MaxSteps < 0 || r.MaxSteps > maxFleetSteps {
		return r, "", fmt.Errorf("serve: fleet steps bounds [%d, %d] outside [0, %d]", r.MinSteps, r.MaxSteps, maxFleetSteps)
	}
	if r.SubmitSpreadMs < 0 {
		return r, "", fmt.Errorf("serve: negative submit spread %dms", r.SubmitSpreadMs)
	}
	if r.HybridFrac < 0 || r.HybridFrac > 1 {
		return r, "", fmt.Errorf("serve: hybrid_frac %v outside [0, 1]", r.HybridFrac)
	}
	if r.DRAMGiB != nil && *r.DRAMGiB < 0 {
		return r, "", fmt.Errorf("serve: negative dram_gib %v", *r.DRAMGiB)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if len(r.Policies) == 0 {
		for _, p := range fleet.Policies() {
			r.Policies = append(r.Policies, string(p))
		}
	}
	for _, name := range r.Policies {
		if _, err := fleet.ParsePolicy(name); err != nil {
			return r, "", err
		}
	}
	if r.Faults != "" {
		plan, err := faults.ParsePlan(r.Faults)
		if err != nil {
			return r, "", err
		}
		if err := plan.Validate(r.Nodes, fleet.DefaultNodeSpec().SSD.Count); err != nil {
			return r, "", err
		}
	}
	key, err := json.Marshal(r)
	if err != nil {
		return r, "", err
	}
	return r, string(key), nil
}

// FleetPolicyResult is one policy's outcome in a /v1/fleet response.
type FleetPolicyResult struct {
	Policy            string  `json:"policy"`
	MakespanNs        int64   `json:"makespan_ns"`
	Makespan          string  `json:"makespan"`
	MeanWaitNs        int64   `json:"mean_wait_ns"`
	MaxWaitNs         int64   `json:"max_wait_ns"`
	MeanSlowdown      float64 `json:"mean_slowdown"`
	TotalWrittenBytes int64   `json:"total_written_bytes"`
	MinLifespanYears  float64 `json:"min_lifespan_years"`
	MeanLifespanYears float64 `json:"mean_lifespan_years"`
	// Fault outcome counters (present only when the request carried a
	// fault plan).
	Deaths   int `json:"deaths,omitempty"`
	Drains   int `json:"drains,omitempty"`
	Restarts int `json:"restarts,omitempty"`
	// Summary is the human-oriented rendering (the cmd/fleet text).
	Summary string `json:"summary"`
}

// FleetResponse is the body of a /v1/fleet answer.
type FleetResponse struct {
	Nodes       int                 `json:"nodes"`
	GPUsPerNode int                 `json:"gpus_per_node"`
	Jobs        int                 `json:"jobs"`
	Seed        int64               `json:"seed"`
	Policies    []FleetPolicyResult `json:"policies"`
}

// runFleetSafe is runFleet behind a recover: the fleet stack treats
// some internal inconsistencies as panics (they cannot happen on primed
// caches), and a service must answer 422, not die, if one ever fires.
func (s *Server) runFleetSafe(req FleetRequest) (resp *FleetResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("serve: fleet simulation panicked: %v", r)
		}
	}()
	return s.runFleet(req)
}

// runFleet simulates the normalized request's mix under each policy,
// sequentially (deterministic order) on the server's shared profiler.
func (s *Server) runFleet(req FleetRequest) (*FleetResponse, error) {
	node := fleet.DefaultNodeSpec()
	if req.GPUs > 0 {
		node.GPUs = req.GPUs
	}
	if req.DRAMGiB != nil {
		node.DRAM = units.Bytes(*req.DRAMGiB * float64(units.GiB))
	}
	var plan faults.Plan
	if req.Faults != "" {
		// normalize already vetted the syntax; re-parse for the value.
		var err error
		if plan, err = faults.ParsePlan(req.Faults); err != nil {
			return nil, err
		}
	}
	jobs := fleet.DefaultJobMix(fleet.MixConfig{
		Jobs:         req.Jobs,
		Seed:         req.Seed,
		MinSteps:     req.MinSteps,
		MaxSteps:     req.MaxSteps,
		SubmitSpread: time.Duration(req.SubmitSpreadMs) * time.Millisecond,
		MaxGPUs:      node.GPUs,
		HybridFrac:   req.HybridFrac,
		FaultPlan:    plan,
	})
	resp := &FleetResponse{
		Nodes:       req.Nodes,
		GPUsPerNode: node.GPUs,
		Jobs:        req.Jobs,
		Seed:        req.Seed,
	}
	for _, name := range req.Policies {
		policy, err := fleet.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		report, err := fleet.Simulate(fleet.Config{
			Cluster:  fleet.ClusterSpec{Nodes: req.Nodes, Node: node},
			Jobs:     jobs,
			Policy:   policy,
			Profiler: s.profiler,
			Faults:   plan,
		})
		if err != nil {
			return nil, err
		}
		resp.Policies = append(resp.Policies, FleetPolicyResult{
			Policy:            string(report.Policy),
			MakespanNs:        report.Makespan.Nanoseconds(),
			Makespan:          report.Makespan.Round(time.Millisecond).String(),
			MeanWaitNs:        report.MeanWait.Nanoseconds(),
			MaxWaitNs:         report.MaxWait.Nanoseconds(),
			MeanSlowdown:      report.MeanSlowdown,
			TotalWrittenBytes: int64(report.TotalWritten),
			MinLifespanYears:  report.MinLifespanYears,
			MeanLifespanYears: report.MeanLifespanYears,
			Deaths:            report.TotalDeaths,
			Drains:            report.TotalDrains,
			Restarts:          report.TotalRestarts,
			Summary:           report.Summary(),
		})
	}
	return resp, nil
}
