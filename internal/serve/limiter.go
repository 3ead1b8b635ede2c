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
	if !l.enter() {
		return false
	}
	defer l.leave()
	select {
	case l.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// enter takes a place in the wait line without waiting for a slot,
// reporting false when the line is full; leave gives the place back.
func (l *limiter) enter() bool {
	select {
	case l.queue <- struct{}{}:
		return true
	default:
		return false
	}
}

func (l *limiter) leave() { <-l.queue }

// release frees a slot claimed by acquire.
func (l *limiter) release() { <-l.slots }

// waiting reports how many callers are currently parked in the wait
// queue — the load signal behind the server's Retry-After derivation.
func (l *limiter) waiting() int { return len(l.queue) }
