package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// EventKind classifies a fleet-level fault event.
type EventKind int

const (
	// Death kills one array member (or the whole array) of a node.
	Death EventKind = iota
	// Degrade multiplies a node's array bandwidth for a window.
	Degrade
	// Drain takes a node out of scheduling, killing its running jobs.
	Drain
)

// String names the kind for reports and errors.
func (k EventKind) String() string {
	switch k {
	case Death:
		return "death"
	case Degrade:
		return "degrade"
	case Drain:
		return "drain"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scheduled fault against one node of a fleet.
type Event struct {
	Kind EventKind
	// At is the simulated time the event fires. For a wear-triggered
	// death (WearThreshold > 0) it is ignored.
	At time.Duration
	// Node indexes the cluster's nodes.
	Node int
	// Device selects the dying array member for Death (-1 = whole
	// array).
	Device int
	// WearThreshold, when > 0, fires the Death when the node array's
	// wear fraction crosses it instead of at a fixed time.
	WearThreshold float64
	// Factor is the bandwidth multiplier for Degrade, in (0, 1).
	Factor float64
	// For is the window length for Degrade, or the drain duration for
	// Drain (0 = permanent drain / rest-of-run degrade).
	For time.Duration
}

// Plan schedules fleet-level faults plus the recovery cost model shared
// by every event.
type Plan struct {
	Events []Event
	// CheckpointSteps is the checkpoint interval: a killed job restarts
	// from its last multiple of this many completed steps (0 =
	// DefaultCheckpointSteps).
	CheckpointSteps int
	// RestartPenalty is the fixed cost a re-queued job pays before
	// making progress again — checkpoint load, process restart,
	// re-warmup (0 = DefaultRestartPenalty).
	RestartPenalty time.Duration
	// RebuildSteal is the rebuild bandwidth steal (0 =
	// DefaultRebuildSteal).
	RebuildSteal float64
	// RebuildFor is the rebuild duration after a member death (0 =
	// DefaultRebuildFor).
	RebuildFor time.Duration
}

// Default recovery cost model for fleet fault plans.
const (
	DefaultCheckpointSteps = 50
	DefaultRestartPenalty  = 30 * time.Second
	DefaultRebuildFor      = 10 * time.Minute
)

// Empty reports whether the plan schedules nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// WithDefaults returns the plan with every unset cost-model field
// resolved to its default.
func (p Plan) WithDefaults() Plan {
	if p.CheckpointSteps <= 0 {
		p.CheckpointSteps = DefaultCheckpointSteps
	}
	if p.RestartPenalty <= 0 {
		p.RestartPenalty = DefaultRestartPenalty
	}
	if !(p.RebuildSteal > 0 && p.RebuildSteal < 1) {
		p.RebuildSteal = DefaultRebuildSteal
	}
	if p.RebuildFor <= 0 {
		p.RebuildFor = DefaultRebuildFor
	}
	return p
}

// Validate rejects malformed plans against a cluster of the given shape.
func (p Plan) Validate(nodes, devices int) error {
	for i, e := range p.Events {
		if e.Node < 0 || e.Node >= nodes {
			return fmt.Errorf("faults: event %d: node %d outside cluster of %d", i, e.Node, nodes)
		}
		switch e.Kind {
		case Death:
			if e.At <= 0 && e.WearThreshold <= 0 {
				return fmt.Errorf("faults: event %d: death needs a time or wear trigger", i)
			}
			if !(e.WearThreshold >= 0 && e.WearThreshold <= 1) {
				return fmt.Errorf("faults: event %d: wear threshold %.3f outside [0, 1]", i, e.WearThreshold)
			}
			if e.Device < -1 || e.Device >= devices {
				return fmt.Errorf("faults: event %d: device %d outside array of %d", i, e.Device, devices)
			}
		case Degrade:
			if e.At <= 0 {
				return fmt.Errorf("faults: event %d: degrade needs a start time", i)
			}
			if !(e.Factor > 0 && e.Factor < 1) {
				return fmt.Errorf("faults: event %d: degrade factor %.3f outside (0, 1)", i, e.Factor)
			}
		case Drain:
			if e.At <= 0 {
				return fmt.Errorf("faults: event %d: drain needs a start time", i)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(e.Kind))
		}
		if e.For < 0 {
			return fmt.Errorf("faults: event %d: negative duration %v", i, e.For)
		}
	}
	return nil
}

// ParsePlan parses the CLI/API fault-plan syntax: comma-separated events
// plus optional cost-model options.
//
//	death@30s:node0:dev1       member 1 of node 0 dies at t=30s
//	death@30s:node0            node 0's whole array fails at t=30s
//	death@wear0.8:node0:dev1   member dies when array wear crosses 80%
//	degrade@10s:node1:0.5:20s  node 1 at 50% bandwidth for 20s
//	drain@60s:node2            node 2 drained permanently at t=60s
//	drain@60s:node2:5m         ... or for 5 minutes
//	ckpt=50 penalty=30s steal=0.3 rebuild=10m   (cost-model options)
func ParsePlan(s string) (Plan, error) {
	var p Plan
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if k, v, ok := strings.Cut(tok, "="); ok && !strings.Contains(k, "@") {
			if err := p.parseOption(k, v); err != nil {
				return Plan{}, err
			}
			continue
		}
		ev, err := parseEvent(tok)
		if err != nil {
			return Plan{}, err
		}
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

func (p *Plan) parseOption(k, v string) error {
	switch k {
	case "ckpt":
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("faults: bad ckpt=%q", v)
		}
		p.CheckpointSteps = n
	case "penalty":
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return fmt.Errorf("faults: bad penalty=%q", v)
		}
		p.RestartPenalty = d
	case "steal":
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0 && f < 1) {
			return fmt.Errorf("faults: bad steal=%q", v)
		}
		p.RebuildSteal = f
	case "rebuild":
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return fmt.Errorf("faults: bad rebuild=%q", v)
		}
		p.RebuildFor = d
	default:
		return fmt.Errorf("faults: unknown option %q", k)
	}
	return nil
}

func parseEvent(tok string) (Event, error) {
	head, rest, _ := strings.Cut(tok, ":")
	kindStr, atStr, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q: want kind@time", tok)
	}
	var ev Event
	switch kindStr {
	case "death":
		ev.Kind = Death
		ev.Device = -1
	case "degrade":
		ev.Kind = Degrade
	case "drain":
		ev.Kind = Drain
	default:
		return Event{}, fmt.Errorf("faults: event %q: unknown kind %q", tok, kindStr)
	}
	if w, ok := strings.CutPrefix(atStr, "wear"); ok && ev.Kind == Death {
		f, err := strconv.ParseFloat(w, 64)
		if err != nil || !(f > 0 && f <= 1) {
			return Event{}, fmt.Errorf("faults: event %q: bad wear threshold %q", tok, w)
		}
		ev.WearThreshold = f
	} else {
		d, err := time.ParseDuration(atStr)
		if err != nil || d <= 0 {
			return Event{}, fmt.Errorf("faults: event %q: bad time %q", tok, atStr)
		}
		ev.At = d
	}
	parts := strings.Split(rest, ":")
	if len(parts) == 0 || parts[0] == "" {
		return Event{}, fmt.Errorf("faults: event %q: missing node", tok)
	}
	node, err := strconv.Atoi(strings.TrimPrefix(parts[0], "node"))
	if err != nil || node < 0 {
		return Event{}, fmt.Errorf("faults: event %q: bad node %q", tok, parts[0])
	}
	ev.Node = node
	args := parts[1:]
	switch ev.Kind {
	case Death:
		if len(args) > 1 {
			return Event{}, fmt.Errorf("faults: event %q: too many fields", tok)
		}
		if len(args) == 1 {
			dev, err := strconv.Atoi(strings.TrimPrefix(args[0], "dev"))
			if err != nil || dev < 0 {
				return Event{}, fmt.Errorf("faults: event %q: bad device %q", tok, args[0])
			}
			ev.Device = dev
		}
	case Degrade:
		if len(args) < 1 || len(args) > 2 {
			return Event{}, fmt.Errorf("faults: event %q: want degrade@t:node:factor[:for]", tok)
		}
		f, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !(f > 0 && f < 1) {
			return Event{}, fmt.Errorf("faults: event %q: bad factor %q", tok, args[0])
		}
		ev.Factor = f
		if len(args) == 2 {
			d, err := time.ParseDuration(args[1])
			if err != nil || d <= 0 {
				return Event{}, fmt.Errorf("faults: event %q: bad duration %q", tok, args[1])
			}
			ev.For = d
		}
	case Drain:
		if len(args) > 1 {
			return Event{}, fmt.Errorf("faults: event %q: too many fields", tok)
		}
		if len(args) == 1 {
			d, err := time.ParseDuration(args[0])
			if err != nil || d <= 0 {
				return Event{}, fmt.Errorf("faults: event %q: bad duration %q", tok, args[0])
			}
			ev.For = d
		}
	}
	return ev, nil
}

// String renders the plan back into ParsePlan syntax (events only when
// the cost model is all-default), normalizing field order.
func (p Plan) String() string {
	var b strings.Builder
	for i, e := range p.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		switch e.Kind {
		case Death:
			if e.WearThreshold > 0 {
				fmt.Fprintf(&b, "death@wear%g:node%d", e.WearThreshold, e.Node)
			} else {
				fmt.Fprintf(&b, "death@%s:node%d", e.At, e.Node)
			}
			if e.Device >= 0 {
				fmt.Fprintf(&b, ":dev%d", e.Device)
			}
		case Degrade:
			fmt.Fprintf(&b, "degrade@%s:node%d:%g", e.At, e.Node, e.Factor)
			if e.For > 0 {
				fmt.Fprintf(&b, ":%s", e.For)
			}
		case Drain:
			fmt.Fprintf(&b, "drain@%s:node%d", e.At, e.Node)
			if e.For > 0 {
				fmt.Fprintf(&b, ":%s", e.For)
			}
		}
	}
	if p.CheckpointSteps > 0 {
		fmt.Fprintf(&b, ",ckpt=%d", p.CheckpointSteps)
	}
	if p.RestartPenalty > 0 {
		fmt.Fprintf(&b, ",penalty=%s", p.RestartPenalty)
	}
	if p.RebuildSteal > 0 {
		fmt.Fprintf(&b, ",steal=%g", p.RebuildSteal)
	}
	if p.RebuildFor > 0 {
		fmt.Fprintf(&b, ",rebuild=%s", p.RebuildFor)
	}
	return strings.TrimPrefix(b.String(), ",")
}

// ParseSpec parses the single-run fault syntax (the plan syntax minus
// the node field — a run has exactly one array):
//
//	death@30s:dev1       member 1 dies at t=30s
//	death@30s            the whole array fails at t=30s
//	death@wear0.8:dev1   member dies when array wear crosses 80%
//	degrade@10s:0.5:20s  50% bandwidth for 20s (omit :20s = rest of run)
//	steal=0.3 rebuild=10m   (rebuild cost options)
//
// Comma-separate at most one death and one degrade window; the caller
// validates the result against its array width with Spec.Validate.
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if k, v, ok := strings.Cut(tok, "="); ok && !strings.Contains(k, "@") {
			switch k {
			case "steal":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || !(f > 0 && f < 1) {
					return Spec{}, fmt.Errorf("faults: bad steal=%q", v)
				}
				sp.RebuildSteal = f
			case "rebuild":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return Spec{}, fmt.Errorf("faults: bad rebuild=%q", v)
				}
				sp.RebuildFor = d
			default:
				return Spec{}, fmt.Errorf("faults: unknown spec option %q", k)
			}
			continue
		}
		head, rest, _ := strings.Cut(tok, ":")
		kindStr, atStr, ok := strings.Cut(head, "@")
		if !ok {
			return Spec{}, fmt.Errorf("faults: spec %q: want kind@time", tok)
		}
		switch kindStr {
		case "death":
			if sp.DeviceDeathAt != 0 || sp.WearThreshold != 0 {
				return Spec{}, fmt.Errorf("faults: spec %q: a run takes one death", tok)
			}
			if w, ok := strings.CutPrefix(atStr, "wear"); ok {
				f, err := strconv.ParseFloat(w, 64)
				if err != nil || !(f > 0 && f <= 1) {
					return Spec{}, fmt.Errorf("faults: spec %q: bad wear threshold %q", tok, w)
				}
				sp.WearThreshold = f
			} else {
				d, err := time.ParseDuration(atStr)
				if err != nil || d <= 0 {
					return Spec{}, fmt.Errorf("faults: spec %q: bad time %q", tok, atStr)
				}
				sp.DeviceDeathAt = d
			}
			if rest == "" {
				sp.Device = -1
			} else {
				dev, err := strconv.Atoi(strings.TrimPrefix(rest, "dev"))
				if err != nil || dev < 0 {
					return Spec{}, fmt.Errorf("faults: spec %q: bad device %q", tok, rest)
				}
				sp.Device = dev
			}
		case "degrade":
			if sp.DegradeAt != 0 {
				return Spec{}, fmt.Errorf("faults: spec %q: a run takes one degrade window", tok)
			}
			d, err := time.ParseDuration(atStr)
			if err != nil || d <= 0 {
				return Spec{}, fmt.Errorf("faults: spec %q: bad time %q", tok, atStr)
			}
			sp.DegradeAt = d
			parts := strings.Split(rest, ":")
			if len(parts) < 1 || len(parts) > 2 || parts[0] == "" {
				return Spec{}, fmt.Errorf("faults: spec %q: want degrade@t:factor[:for]", tok)
			}
			f, err := strconv.ParseFloat(parts[0], 64)
			if err != nil || !(f > 0 && f < 1) {
				return Spec{}, fmt.Errorf("faults: spec %q: bad factor %q", tok, parts[0])
			}
			sp.DegradeFactor = f
			if len(parts) == 2 {
				d, err := time.ParseDuration(parts[1])
				if err != nil || d <= 0 {
					return Spec{}, fmt.Errorf("faults: spec %q: bad duration %q", tok, parts[1])
				}
				sp.DegradeFor = d
			}
		default:
			return Spec{}, fmt.Errorf("faults: spec %q: unknown kind %q (a run takes death/degrade, drains are fleet-level)", tok, kindStr)
		}
	}
	return sp, nil
}
