package sim

import "time"

// Sig is an order-sensitive fingerprint of simulation state, used by the
// steady-state fast path to decide that two consecutive training steps
// produced the same event pattern. It folds 64-bit words through a
// splitmix64-style mix, so it is cheap (a few multiplies per word),
// allocation-free, and — unlike a plain sum — sensitive to ordering, which
// matters because per-resource deltas are folded in a fixed traversal
// order.
//
// A Sig is a value: the zero Sig is ready to use, and equality of two Sigs
// is plain ==. It is a heuristic hash, not a cryptographic one; the fast
// path additionally relies on the simulator being deterministic, so a
// collision would require two *different* deterministic states to hash
// equal AND to be reachable from one another — the property tests pin the
// end-to-end byte-identity that actually matters.
type Sig struct {
	h uint64
}

// splitmix64 is the finalizer from the SplitMix64 generator — a fast
// 64-bit permutation with good avalanche behavior.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fold mixes one 64-bit word into the signature.
func (s *Sig) Fold(x uint64) {
	s.h = splitmix64(s.h ^ x)
}

// FoldInt mixes a signed integer (two's-complement bits).
func (s *Sig) FoldInt(x int64) { s.Fold(uint64(x)) }

// FoldDur mixes a duration (its nanosecond count).
func (s *Sig) FoldDur(d time.Duration) { s.Fold(uint64(d)) }

// FoldHorizon mixes a queue backlog horizon relative to the step origin,
// clamped at zero. A backlog that drained before the step began cannot
// influence any later transfer (every later ready time is ≥ origin), so
// its exact stale value must not keep two otherwise identical steps from
// matching — without the clamp an idle queue's horizon would recede by
// one period per step and a traffic-free strategy would never converge.
func (s *Sig) FoldHorizon(busyUntil, origin time.Duration) {
	s.FoldDur(max(busyUntil-origin, 0))
}

// FoldString mixes a string, length-prefixed so concatenations cannot
// alias.
func (s *Sig) FoldString(str string) {
	s.Fold(uint64(len(str)))
	var w uint64
	n := 0
	for i := 0; i < len(str); i++ {
		w = w<<8 | uint64(str[i])
		n++
		if n == 8 {
			s.Fold(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		s.Fold(w)
	}
}

// Sum returns the current hash value.
func (s *Sig) Sum() uint64 { return s.h }
