package swex

import (
	"context"
	"strings"
	"testing"

	"swex/internal/stats"
	"swex/internal/sweep"
)

var quick = Options{Quick: true}

// run runs one exhibit plan through o.Sweep (a private runner when nil)
// and returns its assembled data.
func run[D any](tb testing.TB, o Options, build func(*plan) assembler[D]) D {
	tb.Helper()
	jobs, assemble := newPlan(o, build)
	runner := o.Sweep
	if runner == nil {
		runner = sweep.MustNewRunner(sweep.Config{})
	}
	results, err := runner.Run(context.Background(), jobs)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := assemble(results)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func TestPublicAPISmoke(t *testing.T) {
	m, err := NewMachine(MachineConfig{Nodes: 4, Spec: FullMap()})
	if err != nil {
		t.Fatal(err)
	}
	prog := Worker(2, 2)
	inst := prog.Setup(m)
	res, err := m.Run(inst.Thread, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time == 0 {
		t.Fatal("zero run time")
	}
	if len(Spectrum()) != 9 {
		t.Fatalf("spectrum has %d protocols, want 9", len(Spectrum()))
	}
	if len(Apps()) != 6 {
		t.Fatalf("registry has %d apps, want 6", len(Apps()))
	}
	if _, err := AppByName("WATER"); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Shape(t *testing.T) {
	d := run(t, quick, table1)
	for i := range d.Readers {
		// The hand-tuned handlers are roughly twice as fast.
		if r := d.CRead[i] / d.ARead[i]; r < 1.5 || r > 3.5 {
			t.Errorf("readers=%d: C/asm read ratio %.2f, want ~2", d.Readers[i], r)
		}
		if r := d.CWrite[i] / d.AWrite[i]; r < 1.5 || r > 3.5 {
			t.Errorf("readers=%d: C/asm write ratio %.2f, want ~2", d.Readers[i], r)
		}
		// Write handlers (invalidation transmission) cost more than reads.
		if d.CWrite[i] <= d.CRead[i] {
			t.Errorf("readers=%d: C write (%.0f) not above C read (%.0f)",
				d.Readers[i], d.CWrite[i], d.CRead[i])
		}
		// Latencies land in the paper's few-hundred-cycle regime.
		if d.CRead[i] < 250 || d.CRead[i] > 700 {
			t.Errorf("C read latency %.0f outside the plausible band", d.CRead[i])
		}
	}
	tab := d.Table()
	if tab.Rows() != len(d.Readers) {
		t.Fatal("table rows mismatch")
	}
}

func TestTable2MatchesPaperTotals(t *testing.T) {
	d := run(t, quick, table2)
	// The median read request empties five pointers and records the
	// requester into a recycled entry; the paper's exact totals hold for
	// the fresh-allocation case, the steady-state medians sit slightly
	// below. Check the signature rows and the band.
	if got := d.CRead.Total(); got < 380 || got > 500 {
		t.Errorf("C read median total = %d, want in [380,500] (paper: 480)", got)
	}
	if got := d.CWrite.Total(); got < 600 || got > 800 {
		t.Errorf("C write median total = %d, want in [600,800] (paper: 737)", got)
	}
	if got := d.ARead.Total(); got < 150 || got > 250 {
		t.Errorf("asm read median total = %d, want in [150,250] (paper: 193)", got)
	}
	if got := d.AWrite.Total(); got < 300 || got > 450 {
		t.Errorf("asm write median total = %d, want in [300,450] (paper: 384)", got)
	}
	// Activities the assembly version eliminates must be zero.
	for _, act := range []stats.Activity{stats.ActProtoDispatch, stats.ActSaveState,
		stats.ActHashAdmin, stats.ActNonAlewife} {
		if d.ARead[act] != 0 || d.AWrite[act] != 0 {
			t.Errorf("assembly breakdown charges %s", act)
		}
	}
	// Invalidation lookup+transmit dominates the C write handler.
	if d.CWrite[stats.ActInvalidate] < d.CWrite.Total()/3 {
		t.Error("invalidation transmit should dominate the write handler")
	}
	if !strings.Contains(d.String(), "trap dispatch") {
		t.Error("rendering lost the activity rows")
	}
}

func TestFigure2Shape(t *testing.T) {
	d := run(t, quick, figure2)
	at := func(proto string, size int) float64 {
		for i, k := range d.Sizes {
			if k == size {
				return d.Ratio[proto][i]
			}
		}
		t.Fatalf("size %d not swept", size)
		return 0
	}
	// H5 matches full-map exactly while worker sets fit the pointers.
	if r := at("DirnH5SNB", 2); r != 1.0 {
		t.Errorf("H5 ratio at size 2 = %.3f, want exactly 1.0", r)
	}
	// Beyond the pointers it degrades.
	if r := at("DirnH5SNB", 8); r <= 1.0 {
		t.Errorf("H5 ratio at size 8 = %.3f, want > 1", r)
	}
	// Ordering at size 8: H0 >> ACK >= LACK >= HW-ack >= H2 >= H5.
	h0 := at("DirnH0SNB,ACK", 8)
	ack := at("DirnH1SNB,ACK", 8)
	lack := at("DirnH1SNB,LACK", 8)
	hw := at("DirnH1SNB", 8)
	h2 := at("DirnH2SNB", 8)
	h5 := at("DirnH5SNB", 8)
	if !(h0 > ack && ack >= lack && lack >= hw && hw >= h2 && h2 >= h5) {
		t.Errorf("protocol ordering violated: H0=%.2f ACK=%.2f LACK=%.2f HW=%.2f H2=%.2f H5=%.2f",
			h0, ack, lack, hw, h2, h5)
	}
	// The software-only directory is dramatically worse on this stress
	// test (the paper's "worst possible performance").
	if h0 < 3 {
		t.Errorf("H0 ratio = %.2f, want the wide margin the stress test exaggerates", h0)
	}
	// LACK within 0-50%-ish of the hardware-ack variant (paper Section 5).
	if lack/hw > 1.6 {
		t.Errorf("LACK/HW = %.2f, paper reports 0%%-50%% worse", lack/hw)
	}
	fig := d.Figure()
	if len(fig.Series) != 6 {
		t.Fatalf("figure has %d series, want 6", len(fig.Series))
	}
}

func TestTable3SequentialTimes(t *testing.T) {
	rows := run(t, quick, table3)
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.SeqCycles == 0 {
			t.Errorf("%s: zero sequential time", r.Name)
		}
		if r.Language == "" || r.Size == "" {
			t.Errorf("%s: missing metadata", r.Name)
		}
	}
	tab := Table3Table(rows)
	if tab.Rows() != 6 {
		t.Fatal("table rows mismatch")
	}
}

func TestFigure3Thrashing(t *testing.T) {
	d := run(t, quick, figure3)
	// Victim caching must recover the software-extended protocols: H5
	// within a factor ~1.5 of full-map; in the base configuration the
	// gap is wider.
	last := len(d.Protocols) - 1 // full map
	h5 := last - 1
	baseGap := d.Speedup["base"][last] / d.Speedup["base"][h5]
	victimGap := d.Speedup["victim-cache"][last] / d.Speedup["victim-cache"][h5]
	if victimGap >= baseGap {
		t.Errorf("victim cache did not close the H5 gap: base %.2f, victim %.2f", baseGap, victimGap)
	}
	if victimGap > 1.6 {
		t.Errorf("victim-cache H5 gap %.2f, want near full-map", victimGap)
	}
	// Perfect ifetch also relieves the thrashing for hardware-pointer
	// protocols (within tolerance: at quick sizes the base-mode gap is
	// already small, so we only require it not to widen materially).
	pifGap := d.Speedup["perfect-ifetch"][last] / d.Speedup["perfect-ifetch"][h5]
	if pifGap > baseGap*1.15 {
		t.Errorf("perfect ifetch widened the H5 gap: base %.2f, pifetch %.2f", baseGap, pifGap)
	}
	if d.Table().Rows() != len(d.Protocols) {
		t.Fatal("table rows mismatch")
	}
}

func TestFigure4Shape(t *testing.T) {
	d := run(t, quick, figure4)
	for _, app := range d.Apps {
		s := d.Speedup[app]
		full := s[len(s)-1]
		h5 := s[len(s)-2]
		h0 := s[0]
		if full <= 1 {
			t.Errorf("%s: full-map speedup %.2f <= 1", app, full)
		}
		// Five pointers achieve a large fraction of full-map.
		if h5 < 0.55*full {
			t.Errorf("%s: H5 speedup %.2f below 55%% of full-map %.2f", app, h5, full)
		}
		// The software-only directory is the cheapest and slowest.
		if h0 > full {
			t.Errorf("%s: H0 speedup %.2f above full-map %.2f", app, h0, full)
		}
		// Monotone in hardware pointers (within a small tolerance for
		// the H2-vs-H1 noise on small quick instances).
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1]*0.8 {
				t.Errorf("%s: speedup not roughly monotone in pointers: %v", app, s)
			}
		}
	}
	if d.Table().Rows() != len(d.Protocols) {
		t.Fatal("table rows mismatch")
	}
}

func TestFigure5Scaling(t *testing.T) {
	d := run(t, quick, figure5)
	full := d.Speedup[len(d.Speedup)-1]
	h5 := d.Speedup[len(d.Speedup)-2]
	if full <= 1 {
		t.Fatalf("full-map speedup %.2f", full)
	}
	// The five-pointer system stays close to full-map at scale (the
	// paper reports 6% on 256 nodes).
	if h5 < 0.5*full {
		t.Errorf("H5 speedup %.2f below half of full-map %.2f at %d nodes", h5, full, d.Nodes)
	}
	if d.Table().Rows() != len(d.Protocols) {
		t.Fatal("table rows mismatch")
	}
}

func TestFigure6Histogram(t *testing.T) {
	d := run(t, quick, figure6)
	h := d.Hist
	if h.Count(1) == 0 {
		t.Fatal("no single-node worker sets")
	}
	// Counts decay with size...
	if h.Count(1) < h.Count(4) {
		t.Error("histogram does not decay from size 1 to 4")
	}
	// ...but globally-shared blocks produce a tail near the machine size.
	if h.MaxBucket() < d.Nodes/2 {
		t.Errorf("max worker set %d, want a wide-sharing tail on %d nodes", h.MaxBucket(), d.Nodes)
	}
	if d.Table().Rows() == 0 {
		t.Fatal("empty histogram table")
	}
}

func TestAblateLocalBit(t *testing.T) {
	rows := run(t, quick, ablateLocalBit)
	// Removing the bit must not speed things up; WORKER k=5 is built to
	// overflow without it, so the effect is visible there.
	for _, r := range rows {
		if r.Delta() < -0.02 {
			t.Errorf("%s: removing the local bit sped the run up by %.1f%%", r.Name, -100*r.Delta())
		}
	}
	if rows[0].Delta() <= 0 {
		t.Errorf("home-share workload shows no local-bit effect: %+.2f%%", 100*rows[0].Delta())
	}
}

func TestAblateSoftware(t *testing.T) {
	rows := run(t, quick, ablateSoftware)
	// Tuned handlers help on average; individual small instances can
	// move a few percent either way from scheduling butterfly effects.
	var mean float64
	for _, r := range rows {
		mean += r.Delta()
		if r.Delta() > 0.10 {
			t.Errorf("%s: assembly handlers slowed the run by %.1f%%", r.Name, 100*r.Delta())
		}
	}
	mean /= float64(len(rows))
	if mean > 0 {
		t.Errorf("assembly handlers slower on average: %+.1f%%", 100*mean)
	}
	if AblationTable("x", rows).Rows() != len(rows) {
		t.Fatal("table rows mismatch")
	}
}

func TestAblateBroadcast(t *testing.T) {
	rows := run(t, quick, ablateBroadcast)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Baseline <= 0 || r.Variant <= 0 {
			t.Fatalf("%s: degenerate times", r.Name)
		}
	}
}

func TestAblateBatchReads(t *testing.T) {
	rows := run(t, quick, ablateBatchReads)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
}

func TestAblateParallelInv(t *testing.T) {
	rows := run(t, quick, ablateParallelInv)
	// Large worker sets must improve; the effect grows with set size.
	small, large := rows[0].Delta(), rows[1].Delta()
	if large >= 0 {
		t.Errorf("parallel invalidation did not help large worker sets: %+.1f%%", 100*large)
	}
	if large >= small {
		t.Errorf("effect should grow with worker-set size: k-small %+.2f%%, k-large %+.2f%%",
			100*small, 100*large)
	}
}

func TestAblateDataSpecific(t *testing.T) {
	rows := run(t, quick, ablateDataSpecific)
	// Promoting the hot read-only table to full-map must help a
	// two-pointer machine.
	if rows[0].Delta() >= 0 {
		t.Errorf("data-specific full-map table did not help: %+.1f%%", 100*rows[0].Delta())
	}
}

func TestAblateMigratory(t *testing.T) {
	rows := run(t, quick, ablateMigratory)
	// The adaptation must speed up the canonical migratory workload.
	if rows[0].Delta() >= 0 {
		t.Errorf("migratory adaptation did not help the token ring: %+.1f%%", 100*rows[0].Delta())
	}
}

func TestAblateAssociativity(t *testing.T) {
	rows := run(t, quick, ablateAssociativity)
	// Both remedies must relieve the thrashing baseline.
	for _, r := range rows {
		if r.Delta() >= 0 {
			t.Errorf("%s did not improve on the direct-mapped baseline: %+.1f%%",
				r.Name, 100*r.Delta())
		}
	}
}

func TestScalingStudy(t *testing.T) {
	d := run(t, quick, scalingStudy)
	// Full-map speedup grows with machine size; every software-extended
	// protocol stays below it at every size.
	full := d.Speedup["DirnHNBS-"]
	if full[len(full)-1] <= full[0] {
		t.Errorf("full-map speedup did not grow with machine size: %v", full)
	}
	for _, p := range d.Protocols {
		if p == "DirnHNBS-" {
			continue
		}
		for i := range d.Sizes {
			if d.Speedup[p][i] > full[i]*1.05 {
				t.Errorf("%s exceeds full-map at %d nodes: %.2f vs %.2f",
					p, d.Sizes[i], d.Speedup[p][i], full[i])
			}
		}
	}
	if len(d.Figure().Series) != 4 {
		t.Fatal("figure series mismatch")
	}
}

func TestAblateCICO(t *testing.T) {
	rows := run(t, quick, ablateCICO)
	// Check-in must help the one-pointer directory-extension protocol,
	// whose writes otherwise always fault into software. The broadcast
	// protocol cannot benefit on a concurrent-read workload: its
	// broadcast bit is sticky precisely because the hardware cannot
	// track untracked copies' check-ins — so only require no harm there.
	if rows[0].Delta() >= 0 {
		t.Errorf("%s: CICO did not help: %+.1f%%", rows[0].Name, 100*rows[0].Delta())
	}
	if rows[1].Delta() > 0.05 {
		t.Errorf("%s: CICO hurt the broadcast protocol: %+.1f%%", rows[1].Name, 100*rows[1].Delta())
	}
}

func TestAblateMultithreading(t *testing.T) {
	rows := run(t, quick, ablateMultithreading)
	// Four contexts must cut the cycles-per-miss substantially.
	if rows[0].Delta() > -0.3 {
		t.Errorf("multithreading saved only %.1f%% per miss, want > 30%%", -100*rows[0].Delta())
	}
}
