package fleet

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/models"
	"ssdtrain/internal/units"
)

// testCluster is a small cluster that keeps profiling cost low.
func testCluster(nodes int) ClusterSpec {
	return ClusterSpec{Nodes: nodes, Node: DefaultNodeSpec()}
}

// planJob is a planner-driven SSDTrain job.
func planJob(id, gpus, steps int) Job {
	return Job{
		ID:    id,
		Name:  fmt.Sprintf("plan-%d", id),
		Run:   exp.Spec{Model: models.PaperConfig(models.BERT, 8192, 4, 8), Offload: exp.OffloadSpec{Strategy: exp.SSDTrain}},
		GPUs:  gpus,
		Steps: steps,
	}
}

// pinJob offloads everything with forwarding disabled, so contention
// dilates its step time.
func pinJob(id, gpus, steps int) Job {
	return Job{
		ID:   id,
		Name: fmt.Sprintf("pin-%d", id),
		Run: exp.Spec{
			Model: models.PaperConfig(models.BERT, 8192, 4, 8),
			Offload: exp.OffloadSpec{
				Strategy:        exp.SSDTrain,
				Budget:          fullOffload,
				NoForwarding:    true,
				KeepLastModules: -1,
			},
		},
		GPUs:  gpus,
		Steps: steps,
	}
}

// renderAll is the full deterministic rendering of a sweep.
func renderAll(reports []*Report) string {
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.String())
		b.WriteString(r.JobTable().String())
	}
	b.WriteString(CompareTable(reports).String())
	return b.String()
}

// TestDeterminismAcrossWorkers is the subsystem's core contract: the same
// seed and job mix produce byte-identical fleet reports for worker-pool
// sizes 1, 4 and NumCPU (run under -race by CI, and -count=2 safe —
// nothing is package-global).
func TestDeterminismAcrossWorkers(t *testing.T) {
	mix := DefaultJobMix(MixConfig{Jobs: 16, Seed: 7, MinSteps: 10, MaxSteps: 60})
	cluster := testCluster(4)
	var want string
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		reports, err := PolicySweep(cluster, mix, Policies(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := renderAll(reports)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d produced a different report", workers)
		}
	}
}

// TestMixDeterminism pins the seeded generator: one seed, one mix.
func TestMixDeterminism(t *testing.T) {
	a := DefaultJobMix(MixConfig{Jobs: 64, Seed: 3})
	b := DefaultJobMix(MixConfig{Jobs: 64, Seed: 3})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different job mixes")
	}
	c := DefaultJobMix(MixConfig{Jobs: 64, Seed: 4})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical job mixes")
	}
	if len(a) != 64 {
		t.Fatalf("mix size = %d, want 64", len(a))
	}
	if got := DefaultJobMix(MixConfig{Jobs: -3, Seed: 1}); len(got) != 0 {
		t.Fatalf("negative job count produced %d jobs, want empty mix", len(got))
	}
	for _, j := range DefaultJobMix(MixConfig{Jobs: 32, Seed: 5, MaxGPUs: 2}) {
		if j.GPUs > 2 {
			t.Fatalf("job %d footprint %d exceeds MaxGPUs 2", j.ID, j.GPUs)
		}
	}
}

// TestSchedulingPolicies builds a head-of-line blocking situation on one
// node: a 2-GPU long job runs, a 4-GPU long job blocks at the head, and
// two 1-GPU shorts sit behind it. FIFO makes the shorts wait; SJF and
// EASY backfill start them immediately.
func TestSchedulingPolicies(t *testing.T) {
	jobs := []Job{
		planJob(0, 2, 200),
		planJob(1, 4, 200),
		planJob(2, 1, 5),
		planJob(3, 1, 5),
	}
	byPolicy := map[Policy]*Report{}
	prof := NewProfiler(0)
	for _, p := range Policies() {
		r, err := Simulate(Config{Cluster: testCluster(1), Jobs: jobs, Policy: p, Profiler: prof})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		byPolicy[p] = r
	}
	shortWait := func(r *Report) time.Duration {
		for _, j := range r.JobReports {
			if j.ID == 2 {
				return j.Wait
			}
		}
		t.Fatal("job 2 missing from report")
		return 0
	}
	if w := shortWait(byPolicy[FIFO]); w == 0 {
		t.Error("FIFO: short job did not wait behind the blocked head")
	}
	if w := shortWait(byPolicy[SJF]); w != 0 {
		t.Errorf("SJF: short job waited %v, want immediate start", w)
	}
	if w := shortWait(byPolicy[Backfill]); w != 0 {
		t.Errorf("backfill: short job waited %v, want backfilled start", w)
	}
	// The blocked head must still run eventually under every policy.
	for p, r := range byPolicy {
		for _, j := range r.JobReports {
			if j.Runtime <= 0 {
				t.Errorf("%s: job %d never ran", p, j.ID)
			}
		}
	}
}

// TestContentionDilatesPinnedJobs co-locates four pinned-budget jobs on
// one node and checks they run slower than their exclusive estimate —
// the shared-array contention the subsystem exists to model.
func TestContentionDilatesPinnedJobs(t *testing.T) {
	jobs := []Job{pinJob(0, 1, 20), pinJob(1, 1, 20), pinJob(2, 1, 20), pinJob(3, 1, 20)}
	r, err := Simulate(Config{Cluster: testCluster(1), Jobs: jobs, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanSlowdown < 1.1 {
		t.Errorf("mean slowdown %.2f, want contention-dilated > 1.1", r.MeanSlowdown)
	}
	if r.NodeReports[0].Written <= 0 {
		t.Error("no writes recorded on the shared array")
	}
	// Solo, the same job suffers no contention.
	solo, err := Simulate(Config{Cluster: testCluster(1), Jobs: jobs[:1], Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	if solo.MeanSlowdown > 1.01 {
		t.Errorf("solo slowdown %.2f, want ~1", solo.MeanSlowdown)
	}
	if r.Makespan <= solo.Makespan {
		t.Errorf("co-located makespan %v not above solo %v", r.Makespan, solo.Makespan)
	}
}

// TestEnduranceLedger checks the fleet wear accounting: more tenants
// write more, consuming drive life faster.
func TestEnduranceLedger(t *testing.T) {
	one, err := Simulate(Config{Cluster: testCluster(1), Jobs: []Job{planJob(0, 1, 50)}, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Simulate(Config{Cluster: testCluster(1), Jobs: []Job{
		planJob(0, 1, 50), planJob(1, 1, 50), planJob(2, 1, 50), planJob(3, 1, 50),
	}, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	if four.TotalWritten <= one.TotalWritten {
		t.Errorf("4 tenants wrote %v, solo wrote %v", four.TotalWritten, one.TotalWritten)
	}
	if four.MinLifespanYears >= one.MinLifespanYears {
		t.Errorf("lifespan did not degrade under multi-tenant pressure: %v vs %v",
			four.MinLifespanYears, one.MinLifespanYears)
	}
	if one.MinLifespanYears <= 0 || one.MinLifespanYears > 100 {
		t.Errorf("lifespan out of range: %v years", one.MinLifespanYears)
	}
}

// tightNode is a node where contention genuinely runs out of GPU memory:
// 40 GiB A100s over a 2-drive array, so a pinned-budget job's in-flight
// copies balloon as its share thins (34.6 GB exclusive, 52.2 GB at 1/2,
// 61.5 GB at 1/4).
func tightNode() NodeSpec {
	node := DefaultNodeSpec()
	node.GPU = gpu.A100PCIe()
	node.SSD.Count = 2
	return node
}

func tightPinJob(id, gpus, steps int) Job {
	return Job{
		ID:   id,
		Name: fmt.Sprintf("tight-pin-%d", id),
		Run: exp.Spec{
			Model:   models.PaperConfig(models.BERT, 8192, 4, 16),
			Offload: exp.OffloadSpec{Strategy: exp.SSDTrain, Budget: fullOffload},
		},
		GPUs:  gpus,
		Steps: steps,
	}
}

// TestExclusiveInfeasibleJob: spread over 4 GPUs (a 1/4 array share even
// alone), the pinned job cannot hold its in-flight copies; Simulate must
// reject it up front rather than deadlock.
func TestExclusiveInfeasibleJob(t *testing.T) {
	_, err := Simulate(Config{
		Cluster: ClusterSpec{Nodes: 1, Node: tightNode()},
		Jobs:    []Job{tightPinJob(0, 4, 10)},
		Policy:  FIFO,
	})
	if err == nil || !strings.Contains(err.Error(), "uncontended") {
		t.Fatalf("want exclusive-infeasibility error, got %v", err)
	}
}

// TestMemoryFeasibilityLimitsCoTenancy: two 1-GPU pinned jobs each fit a
// node alone but not together (a 1/2 share overflows the 40 GiB GPU), so
// the scheduler must serialize them even though GPUs are free.
func TestMemoryFeasibilityLimitsCoTenancy(t *testing.T) {
	jobs := []Job{tightPinJob(0, 1, 10), tightPinJob(1, 1, 10)}
	r, err := Simulate(Config{
		Cluster: ClusterSpec{Nodes: 1, Node: tightNode()},
		Jobs:    jobs,
		Policy:  FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	second := r.JobReports[1]
	if second.Wait <= 0 {
		t.Error("second pinned job co-located despite overflowing GPU memory")
	}
	if got, want := r.Makespan, 2*r.JobReports[0].Runtime; got < want-time.Millisecond {
		t.Errorf("makespan %v shows overlap; want serialized ≥ %v", got, want)
	}
	// On a two-node cluster the same pair runs concurrently.
	spread, err := Simulate(Config{
		Cluster: ClusterSpec{Nodes: 2, Node: tightNode()},
		Jobs:    jobs,
		Policy:  FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spread.JobReports[1].Wait != 0 {
		t.Error("second job waited despite a free second node")
	}
}

// TestValidate covers configuration rejections.
func TestValidate(t *testing.T) {
	good := Config{Cluster: testCluster(1), Jobs: []Job{planJob(0, 1, 1)}, Policy: FIFO}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Cluster.Nodes = 0 }},
		{"no gpus", func(c *Config) { c.Cluster.Node.GPUs = 0 }},
		{"no ssd", func(c *Config) { c.Cluster.Node.SSD.Count = 0 }},
		{"bad policy", func(c *Config) { c.Policy = "lottery" }},
		{"no jobs", func(c *Config) { c.Jobs = nil }},
		{"oversized job", func(c *Config) { c.Jobs[0].GPUs = 99 }},
		{"no steps", func(c *Config) { c.Jobs[0].Steps = 0 }},
		{"negative submit", func(c *Config) { c.Jobs[0].Submit = -time.Second }},
	}
	for _, tc := range cases {
		cfg := good
		cfg.Jobs = append([]Job(nil), good.Jobs...)
		tc.mutate(&cfg)
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// TestArrivals: a staggered mix still completes, and nobody starts
// before submitting.
func TestArrivals(t *testing.T) {
	mix := DefaultJobMix(MixConfig{Jobs: 8, Seed: 2, MinSteps: 5, MaxSteps: 20, SubmitSpread: 5 * time.Minute})
	r, err := Simulate(Config{Cluster: testCluster(2), Jobs: mix, Policy: Backfill})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range r.JobReports {
		if j.Submit+j.Wait+j.Runtime > r.Makespan+time.Millisecond {
			t.Errorf("job %d finishes after makespan", j.ID)
		}
	}
}

// TestProfilerMemoization: repeated measurements run the harness once.
func TestProfilerMemoization(t *testing.T) {
	p := NewProfiler(0)
	node := DefaultNodeSpec()
	run := exp.RunConfig{Model: models.PaperConfig(models.BERT, 8192, 4, 8), Strategy: exp.SSDTrain}
	a, err := p.Measure(run, node, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Measure(run, node, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("memoized profile differs")
	}
	if p.Runs() != 1 {
		t.Fatalf("runs = %d, want 1", p.Runs())
	}
	if hits, misses := p.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits %d misses, want 1/1", hits, misses)
	}
	if a.StepTime <= 0 || a.OffloadedPerStep <= 0 || a.TotalPeak <= 0 {
		t.Fatalf("degenerate profile: %+v", a)
	}
	// A thinner share must not offload more.
	quarter, err := p.Measure(run, node, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if quarter.OffloadedPerStep > a.OffloadedPerStep {
		t.Errorf("planner offloaded more under contention: %v > %v",
			quarter.OffloadedPerStep, a.OffloadedPerStep)
	}
}

// TestProfileWriteRate sanity-checks the fluid rate helpers.
func TestProfileWriteRate(t *testing.T) {
	p := Profile{StepTime: 2 * time.Second, OffloadedPerStep: 10 * units.GB, ArrayPerStep: 10 * units.GB}
	if got := p.StepsPerSecond(); got != 0.5 {
		t.Errorf("StepsPerSecond = %v", got)
	}
	if got := p.WriteRate(); got != 5*units.GBps {
		t.Errorf("WriteRate = %v", got)
	}
	var zero Profile
	if zero.StepsPerSecond() != 0 || zero.WriteRate() != 0 {
		t.Error("zero profile must have zero rates")
	}
}

// TestProfilerSampleTrace: a sampled per-job trace carries spans for the
// same contended measurement the cached profile describes, and sampling
// does not perturb the profile cache.
func TestProfilerSampleTrace(t *testing.T) {
	p := NewProfiler(0)
	node := DefaultNodeSpec()
	run := exp.RunConfig{Model: models.PaperConfig(models.BERT, 8192, 4, 8), Strategy: exp.SSDTrain}
	prof, err := p.Measure(run, node, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	runsBefore := p.Runs()
	tr, err := p.SampleTrace(run, node, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || len(tr.Spans) == 0 {
		t.Fatal("sampled trace is empty")
	}
	if len(tr.Tracks) == 0 {
		t.Fatal("sampled trace has no tracks")
	}
	// Sampling is cache-neutral: no profile run was charged, and the
	// cached profile is untouched.
	if p.Runs() != runsBefore {
		t.Errorf("sampling charged a profile run: %d -> %d", runsBefore, p.Runs())
	}
	again, err := p.Measure(run, node, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof, again) {
		t.Error("profile changed after trace sampling")
	}
}
