package exp

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/models"
	"ssdtrain/internal/trace"
	"ssdtrain/internal/units"
)

// answerCases is the answers grid: every allocCases config, plus an
// array member that dies at a fixed time and one that dies when the
// array's wear crosses a threshold (both deaths land mid-run, and the
// survivors absorb them, so the run completes), a pinned budget and a
// half bandwidth share on the GPT base, and the other two Fig 6
// geometries at batch 16 under ssdtrain with keep-last 1 and under the
// hybrid stack with keep-last 2 and a DRAM grant.
func answerCases() []allocCase {
	cases := allocCases()
	base := cases[2].cfg
	timed := base
	timed.Faults = faults.Spec{DeviceDeathAt: 9 * time.Second, Device: 1}
	worn := base
	worn.Faults = faults.Spec{WearThreshold: 1.5e-9, Device: 1}
	pinned := base
	pinned.Budget = 2 * units.GiB
	half := base
	half.SSDBandwidthShare = 0.5
	cases = append(cases,
		allocCase{"ssdtrain/death-timed", timed},
		allocCase{"ssdtrain/death-wear", worn},
		allocCase{"ssdtrain/budget-pinned", pinned},
		allocCase{"ssdtrain/share-0.5", half})
	for _, g := range []struct {
		name          string
		arch          models.Arch
		hidden, layer int
	}{{"bert-12288x3", models.BERT, 12288, 3}, {"t5-16384x2", models.T5, 16384, 2}} {
		m := models.PaperConfig(g.arch, g.hidden, g.layer, 16)
		ssd := RunConfig{Model: m, Strategy: SSDTrain, KeepLastModules: 1}
		hybrid := RunConfig{Model: m, Strategy: HybridOffload, KeepLastModules: 2, DRAMCapacity: 256 << 20}
		cases = append(cases,
			allocCase{g.name + "/ssdtrain", ssd},
			allocCase{g.name + "/hybrid", hybrid})
	}
	return cases
}

// renderAnswers renders a run's answer one field per line as
// "<case> <field> <value>", leaving out the config echo, the flight
// recorder and the steady-state report. A struct field recurses into
// its fields; a slice or array element is one line with its leaves
// inline. Bytes and durations print as raw integers, so no rounding
// hides a change.
func renderAnswers(name string, res *RunResult, err error) string {
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "%s error %q\n", name, err)
		return b.String()
	}
	v := reflect.ValueOf(res).Elem()
	for i := range v.NumField() {
		switch f := v.Type().Field(i).Name; f {
		case "Config", "Trace", "SteadyState":
		default:
			renderField(f, v.Field(i), func(path, val string) {
				fmt.Fprintf(&b, "%s %s %s\n", name, path, val)
			})
		}
	}
	return b.String()
}

var countersType = reflect.TypeFor[trace.Counters]()

// renderField walks v, calling emit once per field line.
func renderField(path string, v reflect.Value, emit func(path, val string)) {
	join := func(name string) string {
		if path == "" {
			return name
		}
		return path + "." + name
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			emit(path, "nil")
			return
		}
		renderField(path, v.Elem(), emit)
	case reflect.Struct:
		if v.Type() == countersType {
			emit(path, v.Addr().Interface().(*trace.Counters).String())
			return
		}
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				renderField(join(f.Name), v.Field(i), emit)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			var kv []string
			renderField("", v.Index(i), func(p, val string) {
				if p != "" {
					val = p + "=" + val
				}
				kv = append(kv, val)
			})
			emit(fmt.Sprintf("%s[%d]", path, i), strings.Join(kv, " "))
		}
	case reflect.String:
		emit(path, strconv.Quote(v.String()))
	case reflect.Bool:
		emit(path, strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		emit(path, strconv.FormatInt(v.Int(), 10))
	case reflect.Float32, reflect.Float64:
		emit(path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		panic(fmt.Sprintf("renderAnswers: field %s has unhandled kind %v", path, v.Kind()))
	}
}

// TestAnswersByteIdentical pins the answer of every answers-grid config
// over a 20-step run: every RunResult field, counters included. Each
// config runs on a fresh arena with the fast path on, and on a pooled
// arena with SteadyState "off" and then with the fast path on again;
// all three must render the golden. The pooled arena has just run the
// full simulation, and before that the previous config of its shape,
// so the last rendering comes from a recycled arena. The fresh run's
// steady-state report follows each config's fields. Regenerate (only
// for a deliberate behaviour change) with
// `go test ./internal/exp ./internal/fleet -update`.
func TestAnswersByteIdentical(t *testing.T) {
	var b strings.Builder
	pool := NewSessionPool(0)
	for _, c := range answerCases() {
		c.cfg.Steps = 20
		fast, err := Run(c.cfg)
		got := renderAnswers(c.name, fast, err)
		off := c.cfg
		off.SteadyState = "off"
		full, errFull := pool.Execute(off)
		if want := renderAnswers(c.name, full, errFull); got != want {
			t.Errorf("%s: the fast path's answer differs from full simulation:\n--- fast ---\n%s--- full ---\n%s", c.name, got, want)
		}
		reused, errReused := pool.Execute(c.cfg)
		if want := renderAnswers(c.name, reused, errReused); got != want {
			t.Errorf("%s: a recycled arena's answer differs from a fresh one's:\n--- fresh ---\n%s--- recycled ---\n%s", c.name, got, want)
		}
		b.WriteString(got)
		if err == nil {
			fmt.Fprintf(&b, "%s SteadyState %+v\n", c.name, fast.SteadyState)
		}
	}
	checkGolden(t, "testdata/answers.golden", b.String())
}

// TestZeroBudgetOffloadsNothing: over the answers grid, a run whose
// planned budget is zero offloads no activation in any step. The Fig 3
// planner returns zero when no module's reload meets its deadline, and
// the offloaded optimizer's configs hit that case.
func TestZeroBudgetOffloadsNothing(t *testing.T) {
	zeros := 0
	for _, c := range answerCases() {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Tiers == nil || res.PlannedBudget != 0 {
			continue // no offload stack, or a nonzero budget
		}
		zeros++
		for i, st := range res.PerStep {
			if st.IO.Offloaded != 0 {
				t.Errorf("%s: step %d offloaded %v under a zero budget", c.name, i, st.IO.Offloaded)
			}
		}
	}
	if zeros == 0 {
		t.Error("no offloading config in the answers grid plans a zero budget")
	}
}
