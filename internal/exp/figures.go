package exp

import (
	"fmt"
	"time"

	"ssdtrain/internal/core"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/models"
	"ssdtrain/internal/parallel"
	"ssdtrain/internal/perfmodel"
	"ssdtrain/internal/trace"
	"ssdtrain/internal/units"
)

// Fig6Row is one (model, geometry) column of Fig 6: step time and
// activation memory peak with and without SSDTrain.
type Fig6Row struct {
	Arch          models.Arch
	Hidden        int
	Layers        int
	BaseStep      time.Duration
	OffloadStep   time.Duration
	BasePeak      units.Bytes
	OffloadPeak   units.Bytes
	PeakReduction float64 // fraction, e.g. 0.40
	Overhead      float64 // step-time ratio minus 1
}

// Fig6 measures all nine (architecture × geometry) evaluation points with
// batch size 16 (§IV-B). The base/offload pairs run through the
// deduplicated sweep, so both strategies of one column share a single
// graph template and the points execute concurrently.
func Fig6(batch int) ([]Fig6Row, error) {
	if batch == 0 {
		batch = 16
	}
	type point struct {
		arch   models.Arch
		hidden int
		layers int
	}
	var points []point
	var specs []Spec
	for _, arch := range []models.Arch{models.BERT, models.T5, models.GPT} {
		for _, g := range models.Fig6Geometries() {
			cfg := models.PaperConfig(arch, g[0], g[1], batch)
			points = append(points, point{arch, g[0], g[1]})
			specs = append(specs,
				Spec{Model: cfg, Offload: OffloadSpec{Strategy: NoOffload}},
				Spec{Model: cfg, Offload: OffloadSpec{Strategy: SSDTrain}})
		}
	}
	results, err := Sweep(0, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(points))
	for i, p := range points {
		base, off := results[2*i], results[2*i+1]
		rows[i] = Fig6Row{
			Arch:          p.arch,
			Hidden:        p.hidden,
			Layers:        p.layers,
			BaseStep:      base.StepTime(),
			OffloadStep:   off.StepTime(),
			BasePeak:      base.Measured.ActPeak,
			OffloadPeak:   off.Measured.ActPeak,
			PeakReduction: 1 - float64(off.Measured.ActPeak)/float64(base.Measured.ActPeak),
			Overhead:      float64(off.StepTime())/float64(base.StepTime()) - 1,
		}
	}
	return rows, nil
}

// ROKPoint is one point on the recompute-offload-keep curve (Fig 7): a
// strategy at a batch size, plotted as (activation peak, throughput).
type ROKPoint struct {
	Strategy   Strategy
	Batch      int
	Peak       units.Bytes
	Throughput units.FLOPSRate
	StepTime   time.Duration
}

// Fig7 sweeps the ROK design space for a 3-layer BERT at the given hidden
// dimension (the paper uses 12288 and 14336).
func Fig7(hidden int, batches []int) ([]ROKPoint, error) {
	if len(batches) == 0 {
		batches = []int{4, 8, 16}
	}
	type point struct {
		strat Strategy
		batch int
	}
	var points []point
	var specs []Spec
	for _, strat := range []Strategy{SSDTrain, NoOffload, Recompute} {
		for _, b := range batches {
			points = append(points, point{strat, b})
			specs = append(specs, Spec{
				Model:   models.PaperConfig(models.BERT, hidden, 3, b),
				Offload: OffloadSpec{Strategy: strat},
			})
		}
	}
	results, err := Sweep(0, specs)
	if err != nil {
		return nil, err
	}
	pts := make([]ROKPoint, len(points))
	for i, p := range points {
		res := results[i]
		pts[i] = ROKPoint{
			Strategy:   p.strat,
			Batch:      p.batch,
			Peak:       res.Measured.ActPeak,
			Throughput: res.Throughput(),
			StepTime:   res.StepTime(),
		}
	}
	return pts, nil
}

// Fig8aRow decomposes the throughput improvement of micro-batch size B
// over B=1 into weight-update amortization and compute efficiency
// (Fig 8a).
type Fig8aRow struct {
	Batch int
	// Improvement is thr(B)/thr(1) - 1.
	Improvement float64
	// UpdateSaving is the share from amortizing the weight update.
	UpdateSaving float64
	// ComputeEfficiency is the share from better GPU utilization.
	ComputeEfficiency float64
}

// Fig8a measures the breakdown for a 3-layer hidden-12288 BERT without
// offloading (§IV-D "Impact of larger micro-batch size").
func Fig8a(batches []int) ([]Fig8aRow, error) {
	if len(batches) == 0 {
		batches = []int{2, 4, 8, 16}
	}
	type meas struct {
		perTokenAll    float64 // seconds per token, full step
		perTokenNoUpd  float64 // seconds per token, update excluded
		tokensPerBatch float64
	}
	measure := func(b int) (meas, error) {
		cfg := models.PaperConfig(models.BERT, 12288, 3, b)
		res, err := Spec{Model: cfg, Offload: OffloadSpec{Strategy: NoOffload}}.Measure()
		if err != nil {
			return meas{}, err
		}
		upd := res.Measured.UpdateTime
		tokens := float64(cfg.Tokens())
		return meas{
			perTokenAll:    res.StepTime().Seconds() / tokens,
			perTokenNoUpd:  (res.StepTime() - upd).Seconds() / tokens,
			tokensPerBatch: tokens,
		}, nil
	}
	base, err := measure(1)
	if err != nil {
		return nil, err
	}
	updPerStep := base.perTokenAll - base.perTokenNoUpd // per token at B=1
	var rows []Fig8aRow
	for _, b := range batches {
		m, err := measure(b)
		if err != nil {
			return nil, err
		}
		total := base.perTokenAll/m.perTokenAll - 1
		// Hypothetical: amortize the update only, keep B=1 compute
		// efficiency.
		hyp := base.perTokenNoUpd + updPerStep/float64(b)
		updShare := base.perTokenAll/hyp - 1
		rows = append(rows, Fig8aRow{
			Batch:             b,
			Improvement:       total,
			UpdateSaving:      updShare,
			ComputeEfficiency: total - updShare,
		})
	}
	return rows, nil
}

// Table3Row compares the measured per-GPU offloaded amount against the
// analytic estimate and reports the required PCIe write bandwidth
// (Table III).
type Table3Row struct {
	Hidden    int
	Layers    int
	Offloaded units.Bytes
	Estimate  units.Bytes
	WriteBW   units.Bandwidth
}

// Table3 runs the BERT batch-16 measurements.
func Table3() ([]Table3Row, error) {
	geoms := models.Fig6Geometries()
	specs := make([]Spec, len(geoms))
	for i, g := range geoms {
		specs[i] = Spec{
			Model:   models.PaperConfig(models.BERT, g[0], g[1], 16),
			Offload: OffloadSpec{Strategy: SSDTrain},
		}
	}
	results, err := Sweep(0, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(geoms))
	for i, g := range geoms {
		res := results[i]
		off := res.Measured.IO.Offloaded
		rows[i] = Table3Row{
			Hidden:    g[0],
			Layers:    g[1],
			Offloaded: off,
			Estimate:  table3Estimate(specs[i].Model, res),
			WriteBW:   units.BandwidthOf(off, res.StepTime()/2),
		}
	}
	return rows, nil
}

// table3Estimate is the paper's "model estimate" of the offload amount:
// the analytic activation formulas (not the op graph) fed through the
// same Fig 3 planning workflow the framework uses. Agreement between
// this estimate and the measured offload volume validates the §III-D
// activation model, exactly as Table III does.
func table3Estimate(cfg models.Config, res *RunResult) units.Bytes {
	sys := perfmodel.System{
		LLM: perfmodel.LLM{
			Hidden: cfg.Hidden, Layers: cfg.Layers, Seq: cfg.SeqLen,
			Vocab: cfg.Vocab, Causal: cfg.Arch == models.GPT,
		},
		Par:    parallel.Spec{TP: cfg.TP, PP: 1, DP: 1, MicroBatch: cfg.Batch, MicroBatches: 1},
		GPU:    res.Config.GPU,
		Fabric: parallel.DefaultA100Fabric(),
	}
	cost := gpu.DefaultCostModel(res.Config.GPU)
	layerFwd, layerBwd := sys.LayerTimes(cost)
	layerBytes := sys.ActivationBytesPerLayer()

	sbh := units.Bytes(int64(cfg.SeqLen) * int64(cfg.Batch) * int64(cfg.Hidden))
	n, h, v := int64(cfg.Tokens()), int64(cfg.Hidden), int64(cfg.Vocab/cfg.TP)
	embedBytes := 3 * sbh                   // embedding output (2sbh) + mask (sbh)
	headBytes := 4*sbh + units.Bytes(2*n*v) // two LN/lm inputs + probabilities
	headBwd := 2*cost.Matmul(n, h, v, 2) + cost.MemoryBound(units.Bytes(6*n*v))

	saved := []units.Bytes{embedBytes}
	bwd := []time.Duration{cost.MemoryBound(2 * embedBytes)}
	for i := 0; i < cfg.Layers; i++ {
		saved = append(saved, layerBytes)
		bwd = append(bwd, layerBwd)
	}
	saved = append(saved, headBytes)
	bwd = append(bwd, headBwd)

	var fwdTotal time.Duration
	for range saved {
		fwdTotal += layerFwd // head/embed approximated at layer cost scale
	}
	return core.PlanModuleBudget(core.ModulePlan{
		SavedBytes:     saved,
		BwdTime:        bwd,
		ReadBandwidth:  res.Config.SSD.Spec.SeqRead * units.Bandwidth(res.Config.SSD.Count),
		WriteBandwidth: res.Config.SSD.Spec.SeqWrite * units.Bandwidth(res.Config.SSD.Count),
		ForwardTime:    time.Duration(float64(layerFwd) * float64(cfg.Layers+1)),
		BackwardTime:   time.Duration(float64(layerBwd)*float64(cfg.Layers)) + headBwd,
	})
}

// Fig6Table renders Fig 6 as text.
func Fig6Table(rows []Fig6Row) *trace.Table {
	t := trace.NewTable("Fig 6 — step time and activation memory peak (SSDTrain vs no offloading)",
		"model", "geometry", "step(base)", "step(ssdtrain)", "overhead", "peak(base)", "peak(ssdtrain)", "reduction")
	for _, r := range rows {
		t.AddRow(string(r.Arch),
			geomLabel(r.Hidden, r.Layers),
			r.BaseStep.Round(time.Millisecond), r.OffloadStep.Round(time.Millisecond),
			pct(r.Overhead), r.BasePeak, r.OffloadPeak, pct(-r.PeakReduction))
	}
	return t
}

// Fig7Table renders the recompute-offload-keep points as text.
func Fig7Table(hidden int, pts []ROKPoint) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("Fig 7 — recompute-offload-keep design space (BERT H%d L3)", hidden),
		"strategy", "batch", "activation peak", "throughput", "step")
	for _, p := range pts {
		t.AddRow(string(p.Strategy), p.Batch, p.Peak, p.Throughput, p.StepTime.Round(time.Millisecond))
	}
	return t
}

// Table3Table renders the offload-volume validation rows as text.
func Table3Table(rows []Table3Row) *trace.Table {
	t := trace.NewTable("Table III — measured vs estimated offload volume (BERT, batch 16)",
		"geometry", "offloaded", "estimate", "ratio", "write BW")
	for _, r := range rows {
		t.AddRow(geomLabel(r.Hidden, r.Layers), r.Offloaded, r.Estimate,
			fmt.Sprintf("%.2f", float64(r.Offloaded)/float64(r.Estimate)), r.WriteBW)
	}
	return t
}

func geomLabel(h, l int) string {
	return fmt.Sprintf("H%d L%d", h, l)
}

func pct(f float64) string {
	return fmt.Sprintf("%+.1f%%", f*100)
}
