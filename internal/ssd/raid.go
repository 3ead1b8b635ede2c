package ssd

import (
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/units"
)

// Array is a RAID0 stripe set over identical devices, matching the
// testbed's two md RAID0 arrays (3× and 4× P5800X, Table II). Transfers
// are split into stripe-sized chunks distributed round-robin; the
// transfer completes when the slowest member finishes its share.
type Array struct {
	name    string
	devices []*Device
	// stripe is the chunk size (md's default is 512 KiB).
	stripe units.Bytes
	// rr is the round-robin cursor so successive transfers spread load.
	rr int
	// share is the per-member split of the transfer in progress, kept
	// across transfers so striping allocates nothing.
	share []units.Bytes
	// faults, when armed, reports which member is dead at a transfer's
	// ready time so its stripe share is redistributed onto a survivor.
	faults *faults.Controller
}

// NewArray builds a RAID0 array over the devices.
func NewArray(name string, stripe units.Bytes, devices ...*Device) *Array {
	if len(devices) == 0 {
		panic("ssd: array needs at least one device")
	}
	if stripe <= 0 {
		panic("ssd: stripe size must be positive")
	}
	return &Array{name: name, devices: devices, stripe: stripe, share: make([]units.Bytes, len(devices))}
}

// Name returns the array name (e.g. "/mnt/md1").
func (a *Array) Name() string { return a.name }

// Devices returns the member devices.
func (a *Array) Devices() []*Device { return a.devices }

// Reset rewinds the stripe round-robin cursor for reuse by a new
// simulation, so a replayed transfer sequence lands on the same member
// devices. Member devices are reset separately by their owner (they may
// need a rederated spec).
func (a *Array) Reset() { a.rr = 0 }

// Cursor returns the round-robin stripe cursor. The steady-state fast
// path folds it into the per-step signature: two steps only repeat when
// their transfers land on the same member devices, which requires the
// cursor to return to the same position each cycle.
func (a *Array) Cursor() int { return a.rr }

// SetFaults arms (or, with nil, disarms) fault queries for this array.
// While a member is dead its stripe shares fold onto the next surviving
// member; the aggregate slowdown is accounted by the owning tier, which
// derates transfer bandwidth by the controller's Factor.
func (a *Array) SetFaults(c *faults.Controller) { a.faults = c }

// redistribute folds a dead member's stripe share onto the next
// surviving device. The round-robin cursor advances exactly as in the
// healthy case, so the post-rebuild transfer sequence realigns with a
// fault-free run's member assignment.
func (a *Array) redistribute(ready time.Duration, shares []units.Bytes) {
	if a.faults == nil || len(a.devices) < 2 {
		return
	}
	dd := a.faults.DeadDeviceAt(ready)
	if dd < 0 || dd >= len(shares) || shares[dd] == 0 {
		return
	}
	shares[(dd+1)%len(shares)] += shares[dd]
	shares[dd] = 0
}

// AggregateWrite returns the sum of member sequential-write bandwidths,
// the array's headline rate.
func (a *Array) AggregateWrite() units.Bandwidth {
	var bw units.Bandwidth
	for _, d := range a.devices {
		bw += d.Spec().SeqWrite
	}
	return bw
}

// AggregateRead returns the sum of member sequential-read bandwidths.
func (a *Array) AggregateRead() units.Bandwidth {
	var bw units.Bandwidth
	for _, d := range a.devices {
		bw += d.Spec().SeqRead
	}
	return bw
}

// shares splits n bytes into per-device loads starting at the round-robin
// cursor. The split lives in the array's scratch, valid until the next
// transfer.
func (a *Array) shares(n units.Bytes) []units.Bytes {
	out := a.share
	chunks := (n + a.stripe - 1) / a.stripe
	base := chunks / units.Bytes(len(a.devices))
	rem := int(chunks % units.Bytes(len(a.devices)))
	for i := range out {
		c := base
		if (i-a.rr+len(a.devices))%len(a.devices) < rem {
			c++
		}
		out[i] = c * a.stripe
	}
	// Trim overshoot on the last loaded device so shares sum to n.
	var sum units.Bytes
	for _, s := range out {
		sum += s
	}
	if over := sum - n; over > 0 {
		for i := len(out) - 1; i >= 0 && over > 0; i-- {
			cut := over
			if cut > out[i] {
				cut = out[i]
			}
			out[i] -= cut
			over -= cut
		}
	}
	a.rr = (a.rr + rem) % len(a.devices)
	return out
}

// Write stripes an n-byte write across members. It returns when the
// slowest member finishes.
func (a *Array) Write(ready time.Duration, n units.Bytes) time.Duration {
	var finish time.Duration
	shares := a.shares(n)
	a.redistribute(ready, shares)
	for i, share := range shares {
		if share <= 0 {
			continue
		}
		if f := a.devices[i].Write(ready, share); f > finish {
			finish = f
		}
	}
	return max(finish, ready)
}

// Read stripes an n-byte read across members. Returns the finish time.
func (a *Array) Read(ready time.Duration, n units.Bytes) time.Duration {
	var finish time.Duration
	shares := a.shares(n)
	a.redistribute(ready, shares)
	for i, share := range shares {
		if share <= 0 {
			continue
		}
		if f := a.devices[i].Read(ready, share); f > finish {
			finish = f
		}
	}
	return max(finish, ready)
}

// HostWritten sums member write counters.
func (a *Array) HostWritten() units.Bytes {
	var n units.Bytes
	for _, d := range a.devices {
		n += d.HostWritten()
	}
	return n
}

// HostRead sums member read counters.
func (a *Array) HostRead() units.Bytes {
	var n units.Bytes
	for _, d := range a.devices {
		n += d.HostRead()
	}
	return n
}
