package sim_test

import (
	"testing"
	"time"

	"ssdtrain/internal/sim"
)

// runSchedule performs n schedule-then-drain cycles with a bounded
// queue: the mixed push/pop pattern substrate models produce.
func runSchedule(eng *sim.Engine, n int) {
	fn := func() {}
	for i := 0; i < n; i++ {
		eng.After(time.Microsecond, fn)
		if eng.QueueLen() > 1024 {
			eng.Run()
		}
	}
	eng.Run()
}

// steadyLoop is 64 self-rescheduling timers. Its callback is built once,
// so a run allocates nothing once the engine's event pool is warm.
type steadyLoop struct {
	eng       *sim.Engine
	remaining int
	tick      func()
}

func newSteadyLoop(eng *sim.Engine) *steadyLoop {
	l := &steadyLoop{eng: eng}
	l.tick = l.step
	return l
}

func (l *steadyLoop) step() {
	if l.remaining > 0 {
		l.remaining--
		l.eng.After(time.Microsecond, l.tick)
	}
}

// run processes n events through the 64 timers.
func (l *steadyLoop) run(n int) {
	l.remaining = n
	for i := 0; i < 64; i++ {
		l.eng.After(time.Duration(i)*time.Nanosecond, l.tick)
	}
	l.eng.Run()
}

// TestEngineScheduleAllocs pins the schedule loop allocation-free on a
// warm engine.
func TestEngineScheduleAllocs(t *testing.T) {
	eng := sim.NewEngine()
	if allocs := testing.AllocsPerRun(100, func() { runSchedule(eng, 4096) }); allocs != 0 {
		t.Fatalf("schedule loop allocates %.1f/run, want 0", allocs)
	}
}

// TestEngineSteadyStateAllocs pins the steady-state loop
// allocation-free, and checks the reason: the event pool serves
// practically every schedule.
func TestEngineSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine()
	loop := newSteadyLoop(eng)
	if allocs := testing.AllocsPerRun(100, func() { loop.run(4096) }); allocs != 0 {
		t.Fatalf("steady-state loop allocates %.1f/run, want 0", allocs)
	}
	if hr := eng.Stats().PoolHitRate(); hr < 0.99 {
		t.Fatalf("event pool hit rate %.4f, want >= 0.99", hr)
	}
}

// BenchmarkEngineSchedule measures the schedule-then-drain cycle.
// Seed (container/heap, no pool): 412.8 ns/op, 48 B/op, 1 allocs/op.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	runSchedule(sim.NewEngine(), b.N)
}

// BenchmarkEngineSteadyState measures the self-rescheduling timer
// pattern.
// Seed (container/heap, no pool): 118.2 ns/op, 48 B/op, 1 allocs/op.
func BenchmarkEngineSteadyState(b *testing.B) {
	b.ReportAllocs()
	newSteadyLoop(sim.NewEngine()).run(b.N)
}

// BenchmarkEngineDeepQueue measures pop cost with a large standing queue,
// where heap arity dominates: every pop sifts through log_k(n) levels.
func BenchmarkEngineDeepQueue(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	const depth = 1 << 14
	at := time.Duration(0)
	fn := func() {}
	for i := 0; i < depth; i++ {
		at += time.Microsecond
		eng.Schedule(at, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += time.Microsecond
		eng.Schedule(at, fn)
		eng.RunUntil(eng.Now() + time.Microsecond)
	}
	b.StopTimer()
	eng.Run()
}

// BenchmarkServerSubmit measures the FIFO server fast path used by every
// kernel launch and DMA transfer.
func BenchmarkServerSubmit(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	srv := sim.NewServer(eng, "bench")
	done := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Submit(eng.Now(), time.Microsecond, done)
		if eng.QueueLen() > 1024 {
			eng.Run()
		}
	}
	b.StopTimer()
	eng.Run()
}
