package sim_test

import (
	"testing"
	"time"

	"ssdtrain/internal/sim"
)

// BenchmarkServerSubmit measures the FIFO server fast path used by every
// kernel launch and DMA transfer.
func BenchmarkServerSubmit(b *testing.B) {
	b.ReportAllocs()
	srv := sim.NewServer()
	for i := 0; i < b.N; i++ {
		srv.Submit(0, time.Microsecond)
	}
}
