// Package fleet simulates a multi-job training cluster on top of the
// single-node substrates: N nodes × M GPUs, a queue of heterogeneous
// training jobs, pluggable scheduling policies, per-node NVMe arrays that
// co-located jobs contend for, and a fleet-wide endurance ledger. The
// paper evaluates SSDTrain on one 2-GPU node, but its §III-D endurance
// model and Fig 5/Fig 8b projections are about fleet-scale deployments
// where many jobs share drive arrays; this package closes that gap.
//
// Each job's behaviour at every possible contention level is measured
// once by the experiment harness (exp.Run with the node array's
// bandwidth share injected) and memoized; the cluster simulation then
// advances jobs fluidly at the measured step rates. Contention is
// two-sided, exactly as the substrate predicts: jobs that let the Fig 3
// planner choose their budget respond to a thinner share by offloading
// less (raising their GPU memory peak — a placement feasibility
// constraint), while memory-constrained jobs with pinned budgets keep
// offloading and dilate their step time instead.
//
// Profiling runs execute concurrently through a deterministic worker
// pool; the event loop itself is sequential, so a fixed job mix produces
// byte-identical reports for any worker count.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ssdtrain/internal/core"
	"ssdtrain/internal/exp"
	"ssdtrain/internal/faults"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/ssd"
	"ssdtrain/internal/units"
)

// NodeSpec describes one node: its GPUs and the NVMe array they share.
// Unlike the paper's testbed, where each GPU owns a private 4-drive
// array, a fleet node exposes one array to all tenants — even a single
// job's GPUs contend with each other.
type NodeSpec struct {
	GPUs int
	GPU  gpu.Spec
	SSD  exp.SSDSetup
	// DRAM is the node's pinned host-memory budget, contended by tenants
	// whose strategy keeps a DRAM offload rung (hybrid and cpu-offload
	// jobs): each DRAM-using GPU is granted an equal slice, capped at the
	// job's requested capacity, mirroring how the NVMe array's bandwidth
	// is shared. 0 disables the DRAM model (jobs keep their requested
	// capacities unmodified).
	DRAM units.Bytes
}

// DefaultNodeSpec is the fleet evaluation node: 4× A100-SXM-80GB (the GPU
// of the paper's large-scale projections) sharing an 8-drive Samsung
// 980 PRO array — two drives' worth of bandwidth per GPU when the node is
// full, half the paper's per-GPU testbed provisioning, so contention has
// real dynamic range.
func DefaultNodeSpec() NodeSpec {
	return NodeSpec{
		GPUs: 4,
		GPU:  gpu.A100SXM(),
		SSD:  exp.SSDSetup{Spec: ssd.Samsung980Pro1TB(), Count: 8, Stripe: 512 * units.KiB},
		// 512 GiB of host memory for pinned offload pools — 128 GiB per
		// GPU when the node is full, comfortably above a single job's
		// working set but tight once several hybrid tenants co-locate.
		DRAM: 512 * units.GiB,
	}
}

// ClusterSpec is a homogeneous cluster of nodes.
type ClusterSpec struct {
	Nodes int
	Node  NodeSpec
}

// Job is one queued training job.
type Job struct {
	ID   int
	Name string
	// Run is the single-GPU measurement spec (model, strategy, knobs);
	// the node's GPU and SSD array are bound in by the simulation.
	Run exp.Spec
	// run is Run flattened, once per job, by Simulate.
	run exp.RunConfig
	// GPUs is the job's placement footprint on one node.
	GPUs int
	// Steps is the training length in optimizer steps.
	Steps int
	// Submit is the job's arrival time.
	Submit time.Duration
}

// Config configures one fleet simulation.
type Config struct {
	Cluster ClusterSpec
	Jobs    []Job
	Policy  Policy
	// Workers bounds profiling concurrency (0 = GOMAXPROCS). It never
	// affects results, only wall-clock time.
	Workers int
	// CacheCapacity sizes the profile cache (0 = DefaultCacheCapacity).
	CacheCapacity int
	// Profiler optionally shares a warm profile cache across simulations
	// (policy sweeps reuse every profile).
	Profiler *Profiler
	// Faults schedules deterministic fleet-level fault injection: device
	// deaths (timed or wear-triggered) that steal rebuild bandwidth from
	// co-located tenants, transient degradation windows, and node drains
	// that kill and re-queue jobs under a checkpoint-restart cost model.
	// The empty plan injects nothing and keeps the report byte-identical
	// to a fault-free simulation.
	Faults faults.Plan
}

// jobState tracks one job through the simulation.
type jobState struct {
	Job
	running   bool
	node      int
	remaining float64 // steps left
	start     float64 // seconds
	finish    float64 // seconds
	rate      float64 // steps per second at current share
	writeRate float64 // bytes per second to the node array (all GPUs)
	written   float64 // bytes written so far
	// penaltyLeft is the restart penalty still to pay before the job makes
	// progress again (a fault killed it and it restarted from checkpoint).
	penaltyLeft float64
	// restarts counts checkpoint restarts after fault kills.
	restarts int
}

// nodeState tracks one node.
type nodeState struct {
	spec     NodeSpec
	freeGPUs int
	running  []*jobState
	// offGPUs is the GPU count of SSD-offloading tenants; each offloading
	// GPU gets a 1/offGPUs share of the array.
	offGPUs int
	// dramGPUs is the GPU count of DRAM-consuming tenants; each gets an
	// equal slice of the node's pinned-pool budget (capped at its job's
	// request). Zero when the node models no DRAM.
	dramGPUs int
	// dramReserved/dramPeak track the pinned bytes currently granted and
	// their high-water mark.
	dramReserved units.Bytes
	dramPeak     units.Bytes
	wear         *ssd.ArrayWear
	// writeSecs integrates min(demand/capacity, 1) for utilization.
	writeSecs   float64
	busyGPUSecs float64
	placements  int
	// faults is the node's fault-injection state (nil when the plan
	// schedules nothing against this node, keeping the healthy arithmetic
	// untouched).
	faults *nodeFaults
}

// simState is the sequential cluster simulation.
type simState struct {
	cfg   Config
	prof  *Profiler
	jobs  []*jobState
	nodes []*nodeState
	queue []*jobState // submitted, not yet placed, in (Submit, ID) order
	// pending jobs not yet submitted, in (Submit, ID) order.
	pending   []*jobState
	now       float64
	completed int
	// plan is the resolved fault plan (cost-model defaults filled); zero
	// when cfg.Faults is empty.
	plan faults.Plan
}

// arrayWriteCapacity is the node array's aggregate sequential write
// bandwidth.
func (n *nodeState) arrayWriteCapacity() float64 {
	return float64(n.spec.SSD.Spec.SeqWrite) * float64(n.spec.SSD.Count)
}

// shareFor returns the per-GPU array share a tenant sees given the node's
// offloading GPU population.
func (n *nodeState) shareFor(j *jobState) float64 {
	if !offloadsToSSD(j.Job) || n.offGPUs <= 0 {
		return 1
	}
	return 1 / float64(n.offGPUs)
}

// dramGrantFor returns the per-GPU pinned-pool grant a tenant sees given
// the node's DRAM-consuming population: an equal slice of the node
// budget, capped at the job's own request. Hybrid tenants that may
// contend for the array count toward offGPUs even when granted enough
// DRAM to avoid spilling — a conservative model that keeps the share a
// pure function of tenancy.
func (n *nodeState) dramGrantFor(j *jobState) units.Bytes {
	return dramGrant(n.spec, j.Job, n.dramGPUs)
}

// dramGrant computes the per-GPU pinned grant for a job when dramGPUs
// DRAM-consuming GPUs share the node's budget.
func dramGrant(spec NodeSpec, j Job, dramGPUs int) units.Bytes {
	if !wantsDRAM(j) || spec.DRAM <= 0 {
		return j.run.DRAMCapacity
	}
	if dramGPUs <= 0 {
		dramGPUs = j.GPUs
	}
	slice := spec.DRAM / units.Bytes(dramGPUs)
	if req := j.run.DRAMCapacity; req > 0 && req < slice {
		return req
	}
	return slice
}

// offloadsToSSD reports whether the job's tier stack has an NVMe rung
// writing to the node array (hybrid jobs spill their DRAM overflow
// there; optimizer-offload jobs spill FP32 states and shuttle
// gradients/parameters through it).
func offloadsToSSD(j Job) bool {
	_, nvme := j.run.Strategy.OffloadTiers()
	return nvme
}

// wantsDRAM reports whether the job keeps a pinned host-memory rung in
// its stack and therefore consumes the node's DRAM budget: a DRAM rung
// joins the stack when it is the only rung, or when it is granted
// memory above an NVMe rung.
func wantsDRAM(j Job) bool {
	dram, nvme := j.run.Strategy.OffloadTiers()
	return dram && (!nvme || j.run.DRAMCapacity > 0)
}

// validate checks the configuration and that every job can run somewhere.
func (c Config) validate() error {
	if c.Cluster.Nodes <= 0 {
		return fmt.Errorf("fleet: cluster needs at least one node")
	}
	n := c.Cluster.Node
	if n.GPUs <= 0 {
		return fmt.Errorf("fleet: node needs at least one GPU")
	}
	if n.SSD.Count <= 0 {
		return fmt.Errorf("fleet: node needs a shared SSD array")
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("fleet: unknown policy %q", c.Policy)
	}
	if len(c.Jobs) == 0 {
		return fmt.Errorf("fleet: no jobs")
	}
	if err := c.Faults.Validate(c.Cluster.Nodes, n.SSD.Count); err != nil {
		return err
	}
	ids := make(map[int]bool, len(c.Jobs))
	for _, j := range c.Jobs {
		// Schedulers and reports key on the ID; duplicates would silently
		// corrupt SJF ordering.
		if ids[j.ID] {
			return fmt.Errorf("fleet: duplicate job ID %d", j.ID)
		}
		ids[j.ID] = true
		if j.GPUs <= 0 || j.GPUs > n.GPUs {
			return fmt.Errorf("fleet: job %d (%s) needs %d GPUs, nodes have %d", j.ID, j.Name, j.GPUs, n.GPUs)
		}
		if j.Steps <= 0 {
			return fmt.Errorf("fleet: job %d (%s) has no steps", j.ID, j.Name)
		}
		if j.Submit < 0 {
			return fmt.Errorf("fleet: job %d (%s) submitted before time zero", j.ID, j.Name)
		}
	}
	return nil
}

// Simulate runs one fleet simulation: profile every job concurrently,
// then replay the cluster sequentially under the configured policy.
func Simulate(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	jobs := make([]Job, len(cfg.Jobs))
	for i, j := range cfg.Jobs {
		run, err := j.Run.RunConfig()
		if err != nil {
			return nil, fmt.Errorf("fleet: job %d (%s): %w", j.ID, j.Name, err)
		}
		j.run = run
		jobs[i] = j
	}
	prof := cfg.Profiler
	if prof == nil {
		prof = NewProfiler(cfg.CacheCapacity)
	}
	if err := prof.prime(jobs, cfg.Cluster.Node, cfg.Workers); err != nil {
		return nil, err
	}

	s := &simState{cfg: cfg, prof: prof}
	for i := 0; i < cfg.Cluster.Nodes; i++ {
		s.nodes = append(s.nodes, &nodeState{
			spec:     cfg.Cluster.Node,
			freeGPUs: cfg.Cluster.Node.GPUs,
			wear:     ssd.NewArrayWear(cfg.Cluster.Node.SSD.Spec, cfg.Cluster.Node.SSD.Count),
		})
	}
	for _, j := range jobs {
		s.jobs = append(s.jobs, &jobState{Job: j, node: -1, remaining: float64(j.Steps)})
	}
	sort.SliceStable(s.jobs, func(a, b int) bool {
		if s.jobs[a].Submit != s.jobs[b].Submit {
			return s.jobs[a].Submit < s.jobs[b].Submit
		}
		return s.jobs[a].ID < s.jobs[b].ID
	})
	s.pending = append(s.pending, s.jobs...)

	// Exclusive feasibility: a job must fit a node it has to itself.
	for _, j := range s.jobs {
		p, err := s.exclusiveProfile(&j.Job)
		if err != nil {
			return nil, err
		}
		if p.TotalPeak > cfg.Cluster.Node.GPU.Memory {
			return nil, fmt.Errorf("fleet: job %d (%s) needs %v on a %v GPU even uncontended",
				j.ID, j.Name, p.TotalPeak, cfg.Cluster.Node.GPU.Memory)
		}
	}

	s.initFaults()
	sched := newScheduler(cfg.Policy)
	for s.completed < len(s.jobs) {
		s.admitArrivals()
		if err := sched.schedule(s); err != nil {
			return nil, err
		}
		next, ok := s.nextEventTime()
		if !ok {
			return nil, s.deadlockError()
		}
		s.advanceTo(next)
		if err := s.applyFaults(); err != nil {
			return nil, err
		}
		s.completeFinished()
	}
	return s.report(), nil
}

// deadlockError explains why the event loop has nowhere to go. Under
// fault injection the common cause is a job whose only viable array
// failed (or whose node drained permanently) with no surviving node able
// to take it.
func (s *simState) deadlockError() error {
	blocked := ""
	for _, node := range s.nodes {
		if nf := node.faults; nf != nil && (nf.arrayFailed || nf.drainPermanent) {
			blocked = " (a failed array or permanent drain leaves queued jobs unplaceable)"
			break
		}
	}
	return fmt.Errorf("fleet: deadlock at t=%.1fs with %d jobs unfinished under %s%s",
		s.now, len(s.jobs)-s.completed, s.cfg.Policy, blocked)
}

// exclusiveProfile is the job's behaviour alone on a node: its own GPUs
// still share the array (and the DRAM budget) with each other.
func (s *simState) exclusiveProfile(j *Job) (Profile, error) {
	share := 1.0
	if offloadsToSSD(*j) {
		share = 1 / float64(j.GPUs)
	}
	grant := dramGrant(s.cfg.Cluster.Node, *j, j.GPUs)
	return s.prof.Measure(j.run, s.cfg.Cluster.Node, share, grant)
}

// admitArrivals moves jobs whose submit time has passed into the queue.
func (s *simState) admitArrivals() {
	for len(s.pending) > 0 && s.pending[0].Submit.Seconds() <= s.now+timeEps {
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.queue = append(s.queue, j)
	}
}

// timeEps absorbs float rounding when comparing event times (1 ns).
const timeEps = 1e-9

// stepEps treats a job with less than a millionth of a step left as done.
const stepEps = 1e-6

// canPlace reports whether the job fits node n right now: enough free
// GPUs, and the resulting contention — thinner array shares AND thinner
// DRAM grants — leaves every affected tenant (including the newcomer)
// within GPU memory.
func (s *simState) canPlace(j *jobState, n int) (bool, error) {
	node := s.nodes[n]
	if node.freeGPUs < j.GPUs {
		return false, nil
	}
	if node.drained(s.now) {
		return false, nil
	}
	if nf := node.faults; nf != nil && nf.arrayFailed && offloadsToSSD(j.Job) {
		return false, nil
	}
	newOff, newDram := node.offGPUs, node.dramGPUs
	if offloadsToSSD(j.Job) {
		newOff += j.GPUs
	}
	if wantsDRAM(j.Job) && node.spec.DRAM > 0 {
		newDram += j.GPUs
	}
	if newOff == 0 && newDram == 0 {
		return true, nil
	}
	check := func(job *Job) (bool, error) {
		share := 1.0
		if offloadsToSSD(*job) && newOff > 0 {
			share = 1 / float64(newOff)
		}
		p, err := s.prof.Measure(job.run, node.spec, share, dramGrant(node.spec, *job, newDram))
		if err != nil {
			// A cpu-offload tenant whose thinned grant cannot hold its
			// working set overflows its pool (it has no spill rung): that
			// is placement infeasibility, exactly like a GPU-memory miss,
			// not a fleet-wide failure.
			var ovf *core.OverflowError
			if errors.As(err, &ovf) {
				return false, nil
			}
			return false, err
		}
		return p.TotalPeak <= node.spec.GPU.Memory, nil
	}
	affected := func(job *Job) bool { return offloadsToSSD(*job) || wantsDRAM(*job) }
	if affected(&j.Job) {
		if ok, err := check(&j.Job); !ok || err != nil {
			return false, err
		}
	}
	for _, t := range node.running {
		if !affected(&t.Job) {
			continue
		}
		if ok, err := check(&t.Job); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// bestNode picks the node to place the job on: among feasible nodes, the
// one whose array ends up least contended (fewest offloading GPUs after
// placement), then the fullest (best-fit packing), then the lowest index.
func (s *simState) bestNode(j *jobState) (int, bool, error) {
	best, bestOff, bestFree := -1, 0, 0
	for n, node := range s.nodes {
		ok, err := s.canPlace(j, n)
		if err != nil {
			return -1, false, err
		}
		if !ok {
			continue
		}
		off := node.offGPUs
		if offloadsToSSD(j.Job) {
			off += j.GPUs
		}
		if best == -1 || off < bestOff || (off == bestOff && node.freeGPUs < bestFree) {
			best, bestOff, bestFree = n, off, node.freeGPUs
		}
	}
	return best, best >= 0, nil
}

// place starts a queued job on a node and refreshes the node's rates.
func (s *simState) place(j *jobState, n int) error {
	node := s.nodes[n]
	if node.freeGPUs < j.GPUs {
		return fmt.Errorf("fleet: placement overflow on node %d", n)
	}
	s.removeFromQueue(j)
	j.running = true
	j.node = n
	j.start = s.now
	node.freeGPUs -= j.GPUs
	node.running = append(node.running, j)
	node.placements++
	if offloadsToSSD(j.Job) {
		node.offGPUs += j.GPUs
	}
	if wantsDRAM(j.Job) && node.spec.DRAM > 0 {
		node.dramGPUs += j.GPUs
	}
	return s.refreshRates(n)
}

func (s *simState) removeFromQueue(j *jobState) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// refreshRates recomputes every tenant's step and write rates (and the
// node's DRAM reservation ledger) after the node's tenancy changed.
func (s *simState) refreshRates(n int) error {
	node := s.nodes[n]
	var reserved units.Bytes
	for _, j := range node.running {
		share := node.shareFor(j)
		if offloadsToSSD(j.Job) {
			// A faulted array serves each tenant a thinner effective share:
			// surviving members, minus the rebuild steal, minus transient
			// degradation. healthFactor is exactly 1 on healthy nodes, so
			// fault-free simulations measure at the original keys.
			if h := node.healthFactor(s.now); h < 1 {
				share *= h
			}
		}
		p, err := s.prof.Measure(j.run, node.spec, share, node.dramGrantFor(j))
		if err != nil {
			return err
		}
		j.rate = p.StepsPerSecond()
		if j.rate <= 0 {
			return fmt.Errorf("fleet: job %d (%s) has zero progress rate", j.ID, j.Name)
		}
		j.writeRate = float64(p.WriteRate()) * float64(j.GPUs)
		if wantsDRAM(j.Job) && node.spec.DRAM > 0 {
			reserved += node.dramGrantFor(j) * units.Bytes(j.GPUs)
		}
	}
	node.dramReserved = reserved
	if reserved > node.dramPeak {
		node.dramPeak = reserved
	}
	return nil
}

// nextEventTime returns the earliest future event: a job arrival or the
// earliest running job's completion.
func (s *simState) nextEventTime() (float64, bool) {
	next, ok := 0.0, false
	consider := func(t float64) {
		if !ok || t < next {
			next, ok = t, true
		}
	}
	if len(s.pending) > 0 {
		consider(s.pending[0].Submit.Seconds())
	}
	for _, node := range s.nodes {
		for _, j := range node.running {
			consider(s.now + j.penaltyLeft + j.remaining/j.rate)
		}
	}
	s.faultEventTimes(consider)
	return next, ok
}

// advanceTo progresses every running job and accrues the wear and
// utilization ledgers over [now, next].
func (s *simState) advanceTo(next float64) {
	dt := next - s.now
	if dt < 0 {
		dt = 0
	}
	for _, node := range s.nodes {
		demand := 0.0
		// penaltySecs accumulates write-seconds lost to restart penalties:
		// a restarting job holds its GPUs but neither progresses nor
		// writes until the penalty drains. Zero on fault-free runs, so the
		// wear arithmetic below stays bit-exact (x - 0.0 == x).
		penaltySecs := 0.0
		for _, j := range node.running {
			run := dt
			if j.penaltyLeft > 0 {
				use := run
				if j.penaltyLeft < use {
					use = j.penaltyLeft
				}
				j.penaltyLeft -= use
				run -= use
				penaltySecs += j.writeRate * use
			}
			j.remaining -= j.rate * run
			if j.remaining < 0 {
				j.remaining = 0
			}
			j.written += j.writeRate * run
			demand += j.writeRate
			node.busyGPUSecs += float64(j.GPUs) * dt
		}
		node.wear.Record(demand*dt - penaltySecs)
		if capacity := node.arrayWriteCapacity(); capacity > 0 && demand > 0 {
			frac := demand / capacity
			if frac > 1 {
				frac = 1
			}
			node.writeSecs += frac * dt
		}
	}
	s.now = next
}

// completeFinished retires jobs whose steps ran out, freeing their GPUs
// and relaxing their node's contention.
func (s *simState) completeFinished() {
	for n, node := range s.nodes {
		changed := false
		kept := node.running[:0]
		for _, j := range node.running {
			if j.remaining <= stepEps {
				j.running = false
				j.finish = s.now
				node.freeGPUs += j.GPUs
				if offloadsToSSD(j.Job) {
					node.offGPUs -= j.GPUs
				}
				if wantsDRAM(j.Job) && node.spec.DRAM > 0 {
					node.dramGPUs -= j.GPUs
				}
				s.completed++
				changed = true
				continue
			}
			kept = append(kept, j)
		}
		node.running = kept
		if changed {
			// Rates only improve when tenants leave; refresh cannot fail
			// because every needed profile was primed.
			if err := s.refreshRates(n); err != nil {
				panic(err)
			}
		}
	}
}
