package exp

import (
	"ssdtrain/internal/models"
	"ssdtrain/internal/spans"
)

// ReferenceTraceConfig is the reference traced measurement the golden
// Chrome-trace file pins: a small BERT shard under the paper's SSD
// offload strategy, one measured step. Small enough to diff by hand,
// big enough to exercise every track (compute, PCIe, NVMe devices, tier
// queues, allocator).
func ReferenceTraceConfig() RunConfig {
	return RunConfig{
		Model:    models.PaperConfig(models.BERT, 2048, 2, 4),
		Strategy: SSDTrain,
		Steps:    1,
		Warmup:   1,
		Trace:    true,
	}
}

// ReferenceChromeTrace runs the reference traced measurement and returns
// its Chrome trace-event JSON — the bytes the golden test pins.
func ReferenceChromeTrace() ([]byte, error) {
	res, err := Run(ReferenceTraceConfig())
	if err != nil {
		return nil, err
	}
	return res.Trace.ChromeJSON(), nil
}

// TraceOf is a convenience for observers (CLI, serve endpoint): run the
// config with tracing forced on and return both the result and its
// snapshot. The returned result is byte-identical (Trace field aside) to
// an untraced run of the same config.
func TraceOf(cfg RunConfig) (*RunResult, *spans.Trace, error) {
	cfg.Trace = true
	res, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, res.Trace, nil
}
