package serve

import "context"

// limiter bounds concurrent simulation work and applies backpressure:
// up to workers callers run at once, up to queue more wait for a slot,
// and everything beyond that is refused immediately so the caller gets a
// fast 429 instead of an unbounded queue. Both bounds are buffered
// channels — entering the wait line is a non-blocking send into queue,
// so admission can never exceed workers+queue.
type limiter struct {
	slots chan struct{}
	queue chan struct{}
}

func newLimiter(workers, queue int) *limiter {
	if workers <= 0 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &limiter{
		slots: make(chan struct{}, workers),
		queue: make(chan struct{}, queue),
	}
}

// acquire claims a worker slot, waiting in the bounded queue when all
// slots are busy. It returns false when the queue is full (answer 429)
// or the request context ended while waiting.
func (l *limiter) acquire(ctx context.Context) bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
	}
	select {
	case l.queue <- struct{}{}:
	default:
		return false
	}
	defer func() { <-l.queue }()
	select {
	case l.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// release frees a slot claimed by acquire.
func (l *limiter) release() { <-l.slots }

// waiting reports how many callers are currently parked in the wait
// queue — the load signal behind the server's Retry-After derivation.
func (l *limiter) waiting() int { return len(l.queue) }
