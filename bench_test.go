package swex

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, each regenerating that exhibit's data on the simulator and
// reporting the headline quantity as a custom metric. Run with
//
//	go test -bench=. -benchmem
//
// Full problem sizes are used by default (a few seconds to ~1 minute per
// exhibit); -short switches to the quick configurations.

import (
	"testing"
)

func benchOpts() Options { return Options{Quick: testing.Short()} }

// BenchmarkTable1 regenerates the software handler latency table and
// reports the flexible-interface read-handler latency at 8 readers.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := run(b, benchOpts(), table1)
		b.ReportMetric(d.CRead[0], "C-read-cycles")
		b.ReportMetric(d.ARead[0], "asm-read-cycles")
	}
}

// BenchmarkTable2 regenerates the median handler breakdown and reports the
// C and assembly totals (paper: 480/737 and 193/384).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := run(b, benchOpts(), table2)
		b.ReportMetric(float64(d.CRead.Total()), "C-read-total")
		b.ReportMetric(float64(d.CWrite.Total()), "C-write-total")
		b.ReportMetric(float64(d.ARead.Total()), "asm-read-total")
		b.ReportMetric(float64(d.AWrite.Total()), "asm-write-total")
	}
}

// BenchmarkTable3 regenerates the sequential application baselines and
// reports total sequential cycles across the suite.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := run(b, benchOpts(), table3)
		var total float64
		for _, r := range rows {
			total += float64(r.SeqCycles)
		}
		b.ReportMetric(total, "seq-cycles-total")
	}
}

// BenchmarkFig2 regenerates the WORKER sweep and reports the H5 and H0
// run-time ratios at the largest worker-set size.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := run(b, benchOpts(), figure2)
		last := len(d.Sizes) - 1
		b.ReportMetric(d.Ratio["DirnH5SNB"][last], "H5-ratio-max")
		b.ReportMetric(d.Ratio["DirnH0SNB,ACK"][last], "H0-ratio-max")
	}
}

// BenchmarkFig3 regenerates the TSP thrashing study and reports the H5
// speedup gap (full-map/H5) with and without the victim cache.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := run(b, benchOpts(), figure3)
		last := len(d.Protocols) - 1
		b.ReportMetric(d.Speedup["base"][last]/d.Speedup["base"][last-1], "base-H5-gap")
		b.ReportMetric(d.Speedup["victim-cache"][last]/d.Speedup["victim-cache"][last-1], "victim-H5-gap")
	}
}

// BenchmarkFig4 regenerates the application speedup study and reports the
// worst H5-to-full-map fraction across the six applications (the paper's
// 71%-100% claim).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := run(b, benchOpts(), figure4)
		worst := 1.0
		for _, app := range d.Apps {
			s := d.Speedup[app]
			frac := s[len(s)-2] / s[len(s)-1]
			if frac < worst {
				worst = frac
			}
		}
		b.ReportMetric(worst, "worst-H5-fraction")
	}
}

// BenchmarkFig5 regenerates the 256-node TSP run and reports the H5
// fraction of full-map at scale.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := run(b, benchOpts(), figure5)
		n := len(d.Speedup)
		b.ReportMetric(d.Speedup[n-1], "fullmap-speedup")
		b.ReportMetric(d.Speedup[n-2]/d.Speedup[n-1], "H5-fraction")
	}
}

// BenchmarkFig6 regenerates the EVOLVE worker-set histogram and reports
// its small-set and wide-set populations.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := run(b, benchOpts(), figure6)
		b.ReportMetric(float64(d.Hist.Count(1)), "size-1-sets")
		b.ReportMetric(float64(d.Hist.MaxBucket()), "max-set-size")
	}
}

// BenchmarkAblations regenerates all ten ablation studies and reports two
// headline deltas: the local-bit effect and the data-specific
// reconfiguration win.
func BenchmarkAblations(b *testing.B) {
	all := []func(*plan) assembler[[]AblationRow]{
		ablateSoftware, ablateBroadcast, ablateBatchReads,
		ablateParallelInv, ablateMigratory, ablateAssociativity,
		ablateCICO, ablateMultithreading,
	}
	for i := 0; i < b.N; i++ {
		rows := run(b, benchOpts(), ablateLocalBit)
		b.ReportMetric(100*rows[0].Delta(), "localbit-delta-pct")
		ds := run(b, benchOpts(), ablateDataSpecific)
		b.ReportMetric(100*ds[0].Delta(), "dataspec-delta-pct")
		for _, build := range all {
			run(b, benchOpts(), build)
		}
	}
}

// BenchmarkEngine measures raw simulation speed: events per second on a
// 64-node WORKER run (the simulator's own performance, not the paper's).
func BenchmarkEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(MachineConfig{Nodes: 64, Spec: LimitLESS(5)})
		if err != nil {
			b.Fatal(err)
		}
		inst := Worker(8, 5).Setup(m)
		if _, err := m.Run(inst.Thread, 0); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Engine.Fired()), "events")
	}
}
