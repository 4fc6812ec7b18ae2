package sweep

import (
	"testing"
	"time"
)

// The pool benchmarks isolate the runner's scheduling overlap from the
// simulator's CPU appetite: each task dwells in time.Sleep, so the
// measured wall clock reflects only how well runPool overlaps waiting
// tasks. On an M-core machine the expected ratio between the 1-worker and
// W-worker variants is min(W, M-independent) — sleep does not contend for
// cores, so the overlap shows even on a single-core container, which is
// exactly what makes this the honest pool-speedup measurement there
// (CPU-bound simulations cannot overlap without real cores; see
// EXPERIMENTS.md).
func benchmarkPool(b *testing.B, workers int) {
	const tasks = 8
	const dwell = 25 * time.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runPool(workers, tasks, func(int, int) { time.Sleep(dwell) })
	}
}

func BenchmarkPoolOverlapSerial(b *testing.B)   { benchmarkPool(b, 1) }
func BenchmarkPoolOverlapWorkers4(b *testing.B) { benchmarkPool(b, 4) }
func BenchmarkPoolOverlapWorkers8(b *testing.B) { benchmarkPool(b, 8) }
