package swex

// Sweep orchestration benchmarks: the quick-mode Figure 2 matrix (42
// simulations) serial, on a 4-worker pool, and replayed from a warm
// content-addressed cache. Run with `go test -bench SweepFig2 .`; the
// perfbench harness is the committed performance record. On a single-core
// container the serial and parallel variants coincide — simulations are
// pure CPU and cannot overlap without real cores; BenchmarkPoolOverlap* in
// internal/sweep measures the pool's overlap itself. The warm variant
// executes zero simulations.

import (
	"testing"

	"swex/internal/sweep"
)

func benchFig2Sweep(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		r := sweep.MustNewRunner(sweep.Config{Workers: workers})
		run(b, Options{Quick: true, Sweep: r}, figure2)
		r.Close()
	}
}

func BenchmarkSweepFig2Serial(b *testing.B)    { benchFig2Sweep(b, 1) }
func BenchmarkSweepFig2Parallel4(b *testing.B) { benchFig2Sweep(b, 4) }

func BenchmarkSweepFig2Warm(b *testing.B) {
	dir := b.TempDir()
	warmup, err := NewSweeper(SweeperConfig{CacheDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	run(b, Options{Quick: true, Sweep: warmup}, figure2)
	warmup.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewSweeper(SweeperConfig{Workers: 4, CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		run(b, Options{Quick: true, Sweep: r}, figure2)
		if got := r.TotalExecs(); got != 0 {
			b.Fatalf("warm run executed %d simulations", got)
		}
		r.Close()
	}
}
