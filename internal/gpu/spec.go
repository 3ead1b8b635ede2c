// Package gpu models the GPU: device specifications, a roofline kernel
// cost model with tensor-core utilization curves, a caching allocator
// with byte-accurate, class-tagged peak tracking, and the host launch
// pipeline that feeds the device. Together these reproduce the
// performance-relevant behaviours the paper's evaluation depends on:
// compute/transfer overlap, activation memory peaks, small-micro-batch
// inefficiency, and weight-update overhead.
package gpu

import (
	"time"

	"ssdtrain/internal/units"
)

// Spec describes a GPU model.
type Spec struct {
	Name string
	// PeakFP16 is dense tensor-core FP16 throughput.
	PeakFP16 units.FLOPSRate
	// HBMBandwidth is peak device-memory bandwidth.
	HBMBandwidth units.Bandwidth
	// Memory is device memory capacity.
	Memory units.Bytes
	// NVLinkBandwidth is the per-GPU aggregate NVLink bandwidth used by
	// tensor-parallel collectives.
	NVLinkBandwidth units.Bandwidth
	// KernelLaunch is fixed per-kernel device-side latency.
	KernelLaunch time.Duration
	// HostIssue is the host-side CPU cost to enqueue one kernel; the host
	// must stay ahead of the device for the GPU to stay busy (§IV-B).
	HostIssue time.Duration
}

// A100PCIe is the paper's evaluation GPU (Table II): A100 40GB PCIe.
func A100PCIe() Spec {
	return Spec{
		Name:            "A100-PCIe-40GB",
		PeakFP16:        312 * units.TFLOPS,
		HBMBandwidth:    1555 * units.GBps,
		Memory:          40 * units.GiB,
		NVLinkBandwidth: 600 * units.GBps,
		KernelLaunch:    2 * time.Microsecond,
		HostIssue:       6 * time.Microsecond,
	}
}

// A100SXM is the 80 GB SXM variant used in the paper's large-scale
// projections (Fig 5).
func A100SXM() Spec {
	s := A100PCIe()
	s.Name = "A100-SXM-80GB"
	s.HBMBandwidth = 2039 * units.GBps
	s.Memory = 80 * units.GiB
	return s
}
