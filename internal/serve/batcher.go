package serve

import (
	"context"
	"sync"

	"ssdtrain/internal/exp"
)

// batcher group-commits /v1/plan requests per plan shape. The first
// request of a shape claims a worker slot at once; same-shape requests
// that arrive while it waits for one join its batch, which then runs on
// a single borrowed arena — one Compile, one session acquire, N
// Executes — under ONE worker slot. An idle server never waits, batches
// grow with saturation instead of with a timer, and a request arriving
// once its shape's batch holds a slot starts the next batch, free to
// claim another worker. Identical configs never reach the batcher (the
// singleflight upstream coalesces them), so a batch is a set of
// distinct cheap-knob variants of one shape. Every member after the
// first holds a place in the limiter's wait line until its batch
// starts, so the -queue bound and its 429s cover batched requests too.
type batcher struct {
	// exec runs one same-shape batch on a pooled arena; the server wires
	// in its panic-containing executor, so a simulation panic in the
	// start goroutine becomes per-member errors instead of process death.
	exec    func([]exp.RunConfig) []exp.BatchResult
	limiter *limiter
	stats   *stats

	mu sync.Mutex
	// waiting holds each shape's batch while it waits for a worker slot.
	waiting map[exp.RunConfig]*batch
}

type batch struct {
	cfgs []exp.RunConfig
	outs []chan exp.BatchResult
}

func newBatcher(exec func([]exp.RunConfig) []exp.BatchResult, limiter *limiter, st *stats) *batcher {
	return &batcher{
		exec:    exec,
		limiter: limiter,
		stats:   st,
		waiting: make(map[exp.RunConfig]*batch),
	}
}

// run executes cfg (which must be normalized) in its shape's waiting
// batch, or in a new one. Callers must not hold a worker slot. A caller
// whose ctx ends while it waits leaves without its result — its batch
// still runs for the members that stayed, and the buffered channel
// absorbs the orphaned delivery.
func (b *batcher) run(ctx context.Context, cfg exp.RunConfig) (*exp.RunResult, error) {
	shape, err := exp.ShapeKey(cfg)
	if err != nil {
		return nil, err
	}
	ch := make(chan exp.BatchResult, 1)
	b.mu.Lock()
	bt := b.waiting[shape]
	if bt == nil {
		bt = &batch{}
		b.waiting[shape] = bt
		go b.start(shape, bt)
	} else if !b.limiter.enter() {
		b.mu.Unlock()
		return nil, errSaturated
	}
	bt.cfgs = append(bt.cfgs, cfg)
	bt.outs = append(bt.outs, ch)
	b.mu.Unlock()
	select {
	case r := <-ch:
		return r.Result, r.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// start claims a worker slot for a shape's batch, closes the batch and
// runs it. The slot wait uses a background context: members' request
// contexts must not abort work their flight joiners still wait on, and
// every slot holder releases in bounded time. If the wait line is full,
// every member reports saturation.
func (b *batcher) start(shape exp.RunConfig, bt *batch) {
	ok := b.limiter.acquire(context.Background())
	b.mu.Lock()
	delete(b.waiting, shape)
	b.mu.Unlock()
	// The joiners' places in the wait line pass to the slot.
	for range len(bt.cfgs) - 1 {
		b.limiter.leave()
	}
	if !ok {
		for _, ch := range bt.outs {
			ch <- exp.BatchResult{Err: errSaturated}
		}
		return
	}
	results := b.exec(bt.cfgs)
	b.limiter.release()
	b.stats.recordBatch(len(bt.cfgs))
	for i, ch := range bt.outs {
		ch <- results[i]
	}
}
