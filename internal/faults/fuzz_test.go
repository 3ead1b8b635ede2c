package faults

import (
	"math"
	"reflect"
	"testing"
)

// faultSeeds are the grammar examples of the ParsePlan and ParseSpec doc
// comments plus the rows of the parser tests, accepted and rejected.
var faultSeeds = []string{
	"death@30s:node0:dev1",
	"death@30s:node0",
	"death@wear0.8:node0:dev1",
	"degrade@10s:node1:0.5:20s",
	"drain@60s:node2",
	"drain@60s:node2:5m",
	"ckpt=50,penalty=30s,steal=0.3,rebuild=10m",
	"death@wear0.8:node3:dev2",
	"degrade@10s:node1:0.25",
	"drain@90s:node3",
	"death@30s:node0:dev1,degrade@1m:node1:0.5:30s,drain@2m:node2:5m,ckpt=25,penalty=10s,steal=0.4,rebuild=8m",
	"frob@10s:node0",
	"death@banana:node0",
	"death@10s",
	"degrade@10s:node0",
	"drain@10s:dev1",
	"ckpt=0",
	"penalty=-5s",
	"steal=2",
	"rebuild=0s",
	"mystery=1",
	"death@wearNaN:node0",
	"death@30s:node0:dev1,steal=NaN",
	"death@30s:dev1",
	"death@30s",
	"death@wear0.8:dev1",
	"degrade@10s:0.5:20s",
	"steal=0.3,rebuild=10m",
	"death@30s:dev1,degrade@10s:0.5:20s,steal=0.4,rebuild=8m",
	"death@wear0.8:dev2",
	"drain@10s",
	"death@30s,death@40s",
	"degrade@1s:2",
	"death@0s:dev1",
	"degrade@1s:0.5:0s",
	"steal=1",
	"death@wearNaN",
	"degrade@1s:NaN",
	"",
}

func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// FuzzParsePlan: no input panics; an accepted plan has only finite
// floats, validates without panicking, and survives a String round trip.
func FuzzParsePlan(f *testing.F) {
	for _, s := range faultSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		if !finite(p.RebuildSteal) {
			t.Fatalf("ParsePlan(%q): steal %v", s, p.RebuildSteal)
		}
		for _, e := range p.Events {
			if !finite(e.WearThreshold, e.Factor) {
				t.Fatalf("ParsePlan(%q): event %+v", s, e)
			}
		}
		_ = p.Validate(4, 8)
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) printed %q, which does not parse: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip of %q via %q:\n  first  %+v\n  second %+v", s, p.String(), p, q)
		}
	})
}

// FuzzParseSpec: no input panics; an accepted spec has only finite
// floats and validates without panicking.
func FuzzParseSpec(f *testing.F) {
	for _, s := range faultSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		if !finite(sp.WearThreshold, sp.DegradeFactor, sp.RebuildSteal) {
			t.Fatalf("ParseSpec(%q) = %+v", s, sp)
		}
		_ = sp.Validate(8)
	})
}
