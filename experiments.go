package swex

import (
	"context"
	"errors"
	"fmt"

	"swex/internal/apps"
	"swex/internal/machine"
	"swex/internal/proto"
	"swex/internal/report"
	"swex/internal/sim"
	"swex/internal/stats"
	"swex/internal/sweep"
)

// Package-level note: every exhibit is deterministic — the same Options
// produce bit-identical results, at any worker count.
//
// Each exhibit is one plan function. It walks the exhibit's loops once,
// records every simulation point with plan.add (which returns the index
// the point's result will have), and returns the assembler: a closure
// that shapes the results, read through the indices it kept, into the
// paper's table or figure. The registry (Matrices) derives each exhibit's
// job list and its rendering from that one function. Render submits the
// jobs of every exhibit it is given as one sweep, so the simulation points
// they share — for example the sequential baselines common to Table 3,
// Figure 4, Figure 5, and the scaling study — run once, not four times.

// Options controls how an experiment runs.
type Options struct {
	// Quick shrinks problem sizes and machine counts so the experiment
	// completes in a few seconds, preserving every qualitative shape.
	// Used by tests and short benchmark runs.
	Quick bool
	// Sweep is the runner Render submits to. Nil uses a private
	// in-memory runner with one worker per core. A runner configured
	// with a cache directory serves finished points from disk, so results
	// persist across Render calls and across processes.
	Sweep *Sweeper
}

// nodes is the machine size of the application studies (Figures 3, 4 and
// 6 and the application ablations): 64 nodes, 16 in quick mode.
func (o Options) nodes() int {
	if o.Quick {
		return 16
	}
	return 64
}

// programs returns the six applications at the mode's problem sizes, in
// registry (Figure 4) order.
func (o Options) programs() []apps.Program {
	if o.Quick {
		return apps.QuickRegistry()
	}
	return apps.Registry()
}

// plan is one exhibit's job matrix under construction.
type plan struct {
	Options
	jobs []sweep.Job
}

// assembler shapes an exhibit's data from its matrix's results, which
// arrive in submission order.
type assembler[D any] func(r []sweep.Result) (D, error)

// add appends a job to the matrix and returns the index of its result.
func (p *plan) add(j sweep.Job) int {
	p.jobs = append(p.jobs, j)
	return len(p.jobs) - 1
}

// app adds a run of an application (by paper name) at the plan's problem
// size.
func (p *plan) app(name string, cfg machine.Config) int {
	return p.add(sweep.AppJob(name, p.Quick, cfg))
}

// seq adds an application's sequential baseline: one node, full-map,
// victim caching. Table 3 reports it and every parallel application study
// normalizes against it, so a shared runner computes each baseline once
// across Table 3, Figures 4 and 5, the scaling study and the
// extrapolation.
func (p *plan) seq(name string) int {
	return p.app(name, victimCached(1, proto.FullMap()))
}

// victimCached is a machine with the paper's eight-line victim cache, the
// default of the application studies after the TSP study.
func victimCached(nodes int, spec proto.Spec) machine.Config {
	return machine.Config{Nodes: nodes, Spec: spec, VictimLines: 8}
}

// timeRatio is a's run time over b's.
func timeRatio(a, b sweep.Result) float64 { return float64(a.Time) / float64(b.Time) }

// specNames labels protocols by their paper names.
func specNames(specs []proto.Spec) []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}

// newPlan walks an exhibit's plan function once and returns its job
// matrix and assembler.
func newPlan[D any](o Options, build func(*plan) assembler[D]) ([]sweep.Job, assembler[D]) {
	p := &plan{Options: o}
	assemble := build(p)
	return p.jobs, assemble
}

// --------------------------------------------------------------- Table 1

// Table1Data holds the average software-extension latencies of the
// flexible (C) and hand-tuned (assembly) handlers under Dir_nH_5S_NB,
// sliced by readers per block — the paper's Table 1.
type Table1Data struct {
	Readers []int
	CRead   []float64
	ARead   []float64
	CWrite  []float64
	AWrite  []float64
}

// handlerJob is the WORKER run behind Tables 1 and 2: the given readers
// per block on 16 nodes under Dir_nH_5S_NB with one software
// implementation.
func handlerJob(o Options, readers int, sw machine.SoftwareKind) sweep.Job {
	iters := 10
	if o.Quick {
		iters = 4
	}
	return sweep.WorkerJob(readers, iters, machine.Config{
		Nodes: 16, Spec: proto.LimitLESS(5), Software: sw,
	})
}

// table1 measures software handler latencies by running the WORKER
// benchmark on a 16-node machine, exactly as the paper does: one run per
// (readers, software implementation) pair, software-kind innermost. (The
// largest worker set on 16 nodes with a distinct writer is 15 readers; the
// paper's 16-reader row becomes 15 here.)
func table1(p *plan) assembler[*Table1Data] {
	readers := []int{8, 12, 15}
	if p.Quick {
		readers = []int{8}
	}
	var c, a []int
	for _, k := range readers {
		c = append(c, p.add(handlerJob(p.Options, k, machine.FlexibleC)))
		a = append(a, p.add(handlerJob(p.Options, k, machine.TunedASM)))
	}
	return func(r []sweep.Result) (*Table1Data, error) {
		d := &Table1Data{Readers: readers}
		for i := range readers {
			d.CRead = append(d.CRead, r[c[i]].ReadMean)
			d.CWrite = append(d.CWrite, r[c[i]].WriteMean)
			d.ARead = append(d.ARead, r[a[i]].ReadMean)
			d.AWrite = append(d.AWrite, r[a[i]].WriteMean)
		}
		return d, nil
	}
}

// Table renders the data in the paper's layout.
func (d *Table1Data) Table() *report.Table {
	t := report.NewTable(
		"Table 1: average software-extension latencies (cycles), DirnH5SNB on 16 nodes",
		"readers/block", "C read", "asm read", "C write", "asm write")
	for i, k := range d.Readers {
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", d.CRead[i]), fmt.Sprintf("%.0f", d.ARead[i]),
			fmt.Sprintf("%.0f", d.CWrite[i]), fmt.Sprintf("%.0f", d.AWrite[i]))
	}
	return t
}

// --------------------------------------------------------------- Table 2

// Table2Data holds the cycle breakdown of the median read and write
// handlers for both software implementations — the paper's Table 2.
type Table2Data struct {
	CRead, CWrite stats.Breakdown
	ARead, AWrite stats.Breakdown
}

// table2 reproduces the per-activity cycle accounting by running WORKER
// with 8 readers per block on 16 nodes (flexible C, then assembly) and
// selecting the median request of each type. These are the same
// simulation points as Table 1's 8-reader row, so a shared runner
// computes them once for both tables.
func table2(p *plan) assembler[*Table2Data] {
	c := p.add(handlerJob(p.Options, 8, machine.FlexibleC))
	a := p.add(handlerJob(p.Options, 8, machine.TunedASM))
	return func(r []sweep.Result) (*Table2Data, error) {
		for _, i := range []int{c, a} {
			if !r[i].HasReadMedian || !r[i].HasWriteMedian {
				return nil, fmt.Errorf("%s: no handler records", p.jobs[i].Config.Software)
			}
		}
		return &Table2Data{
			CRead: r[c].ReadMedian.Stats(), CWrite: r[c].WriteMedian.Stats(),
			ARead: r[a].ReadMedian.Stats(), AWrite: r[a].WriteMedian.Stats(),
		}, nil
	}
}

// String renders both implementations' breakdowns.
func (d *Table2Data) String() string {
	return "Table 2: median handler cycle breakdown, 8 readers / 1 writer\n\n" +
		"Flexible coherence interface (C):\n" +
		stats.FormatBreakdown(&d.CRead, &d.CWrite) +
		"\nHand-tuned assembly:\n" +
		stats.FormatBreakdown(&d.ARead, &d.AWrite)
}

// -------------------------------------------------------------- Figure 2

// Figure2Data holds WORKER run-time ratios against the full-map protocol
// across worker-set sizes — the paper's Figure 2.
type Figure2Data struct {
	Sizes     []int
	Protocols []string
	// Ratio[protocol][size index] = run time / full-map run time.
	Ratio map[string][]float64
}

// figure2 runs the WORKER worker-set-size sweep on 16 nodes: for each
// size, the full-map baseline followed by each protocol. The solid curves
// are the Alewife-implementable protocols; the dashed ones are the
// simulator-only one-pointer variants.
func figure2(p *plan) assembler[*Figure2Data] {
	sizes, iters := []int{1, 2, 4, 8, 12, 15}, 10
	if p.Quick {
		sizes, iters = []int{2, 8}, 4
	}
	specs := []proto.Spec{
		proto.SoftwareOnly(),
		proto.OnePointer(proto.AckSW),
		proto.OnePointer(proto.AckLACK),
		proto.OnePointer(proto.AckHW),
		proto.LimitLESS(2),
		proto.LimitLESS(5),
	}
	worker := func(k int, spec proto.Spec) int {
		return p.add(sweep.WorkerJob(k, iters, machine.Config{Nodes: 16, Spec: spec}))
	}
	var full []int
	runs := make(map[string][]int)
	for _, k := range sizes {
		full = append(full, worker(k, proto.FullMap()))
		for _, spec := range specs {
			runs[spec.Name] = append(runs[spec.Name], worker(k, spec))
		}
	}
	return func(r []sweep.Result) (*Figure2Data, error) {
		d := &Figure2Data{Sizes: sizes, Protocols: specNames(specs), Ratio: make(map[string][]float64)}
		for _, name := range d.Protocols {
			for i, run := range runs[name] {
				d.Ratio[name] = append(d.Ratio[name], timeRatio(r[run], r[full[i]]))
			}
		}
		return d, nil
	}
}

// Figure renders the sweep as series over worker-set size.
func (d *Figure2Data) Figure() *report.Figure {
	f := report.NewFigure("Figure 2: WORKER protocol performance vs worker-set size (16 nodes)",
		"worker set size", "run time / full-map run time")
	for _, p := range d.Protocols {
		s := f.Line(p)
		for i, k := range d.Sizes {
			s.Add(float64(k), d.Ratio[p][i])
		}
	}
	return f
}

// --------------------------------------------------------------- Table 3

// Table3Row describes one application.
type Table3Row struct {
	Name       string
	Language   string // the paper's implementation language
	Size       string // our (scaled) problem size
	SeqSeconds float64
	SeqCycles  sim.Cycle
}

// table3 measures each application's sequential time on one node at the
// 33 MHz Alewife clock. Languages are the paper's; sizes are the problem
// sizes this mode runs (this reproduction's scaled instances).
func table3(p *plan) assembler[[]Table3Row] {
	progs := p.programs()
	var seq []int
	for _, prog := range progs {
		seq = append(seq, p.seq(prog.Name))
	}
	return func(r []sweep.Result) ([]Table3Row, error) {
		var rows []Table3Row
		for i, prog := range progs {
			t := r[seq[i]].Time
			rows = append(rows, Table3Row{
				Name: prog.Name, Language: prog.Language, Size: prog.Size,
				SeqSeconds: t.Seconds(), SeqCycles: t,
			})
		}
		return rows, nil
	}
}

// Table3Table renders the rows.
func Table3Table(rows []Table3Row) *report.Table {
	t := report.NewTable("Table 3: application characteristics (sequential at 33 MHz)",
		"name", "language", "size", "sequential")
	for _, r := range rows {
		t.AddRow(r.Name, r.Language, r.Size, fmt.Sprintf("%.3f sec", r.SeqSeconds))
	}
	return t
}

// -------------------------------------------------- Figures 3, 4, and 5

// fig4Specs are the protocol spectrum points of the application studies:
// 0, 1, 2, and 5 hardware pointers plus the full map. The one-pointer
// protocol is Dir_nH_1S_NB,ACK, as in all of the paper's Section 6 figures.
func fig4Specs() []proto.Spec {
	return []proto.Spec{
		proto.SoftwareOnly(),
		proto.OnePointer(proto.AckSW),
		proto.LimitLESS(2),
		proto.LimitLESS(5),
		proto.FullMap(),
	}
}

// pointerLabels maps specs to their Figure 4 x-axis positions.
func pointerLabels(specs []proto.Spec) []string {
	var labels []string
	for _, s := range specs {
		if s.FullMap {
			labels = append(labels, "n")
		} else {
			labels = append(labels, fmt.Sprintf("%d", s.HWPointers))
		}
	}
	return labels
}

// Figure3Data holds the TSP cache-configuration study: run time and
// speedup per protocol for the plain direct-mapped cache, the perfect
// instruction-fetch simulator option, and the victim cache.
type Figure3Data struct {
	Modes     []string
	Protocols []string
	// Speedup[mode][i] is the speedup of protocol i over the sequential
	// run in the same cache mode.
	Speedup map[string][]float64
	// Time[mode][i] is the parallel run time in cycles.
	Time map[string][]sim.Cycle
}

// cacheMode returns a configuration in one of the TSP study's cache
// modes.
func cacheMode(mode string, c machine.Config) machine.Config {
	switch mode {
	case "perfect-ifetch":
		c.PerfectIfetch = true
	case "victim-cache":
		c.VictimLines = 8
	}
	return c
}

// figure3 reproduces the TSP instruction/data thrashing study on 64 nodes
// (16 in quick mode): for each cache mode, the sequential baseline
// followed by each spectrum point.
func figure3(p *plan) assembler[*Figure3Data] {
	modes := []string{"base", "perfect-ifetch", "victim-cache"}
	specs := fig4Specs()
	seq := make(map[string]int)
	runs := make(map[string][]int)
	for _, mode := range modes {
		seq[mode] = p.app("TSP", cacheMode(mode, machine.Config{Nodes: 1, Spec: proto.FullMap()}))
		for _, spec := range specs {
			runs[mode] = append(runs[mode], p.app("TSP", cacheMode(mode, machine.Config{Nodes: p.nodes(), Spec: spec})))
		}
	}
	return func(r []sweep.Result) (*Figure3Data, error) {
		d := &Figure3Data{
			Modes:     modes,
			Protocols: pointerLabels(specs),
			Speedup:   make(map[string][]float64),
			Time:      make(map[string][]sim.Cycle),
		}
		for _, mode := range modes {
			for _, run := range runs[mode] {
				d.Speedup[mode] = append(d.Speedup[mode], timeRatio(r[seq[mode]], r[run]))
				d.Time[mode] = append(d.Time[mode], r[run].Time)
			}
		}
		return d, nil
	}
}

// Table renders speedups, protocols as rows and cache modes as columns.
func (d *Figure3Data) Table() *report.Table {
	t := report.NewTable("Figure 3: TSP detailed performance analysis (speedup over sequential)",
		append([]string{"hw pointers"}, d.Modes...)...)
	for i, p := range d.Protocols {
		row := []string{p}
		for _, m := range d.Modes {
			row = append(row, fmt.Sprintf("%.1f", d.Speedup[m][i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure4Data holds application speedups across the protocol spectrum —
// the paper's Figure 4 (a)–(f).
type Figure4Data struct {
	Apps      []string
	Protocols []string
	// Speedup[app][i] is the speedup of protocol i over sequential.
	Speedup map[string][]float64
	// Nodes is the machine size used.
	Nodes int
}

// figure4 runs every application across the spectrum with victim caching
// enabled (the paper's default after the TSP study), on 64 nodes (16 in
// quick mode, with reduced problem sizes): for each application, the
// sequential baseline (shared with Table 3) followed by each spectrum
// point.
func figure4(p *plan) assembler[*Figure4Data] {
	specs := fig4Specs()
	var names []string
	seq := make(map[string]int)
	runs := make(map[string][]int)
	for _, prog := range p.programs() {
		names = append(names, prog.Name)
		seq[prog.Name] = p.seq(prog.Name)
		for _, spec := range specs {
			runs[prog.Name] = append(runs[prog.Name], p.app(prog.Name, victimCached(p.nodes(), spec)))
		}
	}
	return func(r []sweep.Result) (*Figure4Data, error) {
		d := &Figure4Data{Apps: names, Protocols: pointerLabels(specs),
			Speedup: make(map[string][]float64), Nodes: p.nodes()}
		for _, name := range names {
			for _, run := range runs[name] {
				d.Speedup[name] = append(d.Speedup[name], timeRatio(r[seq[name]], r[run]))
			}
		}
		return d, nil
	}
}

// Table renders speedups, hardware-pointer counts as rows.
func (d *Figure4Data) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 4: application speedups over sequential (%d nodes, victim caching)", d.Nodes),
		append([]string{"hw pointers"}, d.Apps...)...)
	for i, p := range d.Protocols {
		row := []string{p}
		for _, a := range d.Apps {
			row = append(row, fmt.Sprintf("%.1f", d.Speedup[a][i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure5Data holds the 256-node TSP run — the paper's Figure 5.
type Figure5Data struct {
	Protocols []string
	Speedup   []float64
	Nodes     int
}

// figure5 runs TSP with victim caching on a machine four times the size
// of the application studies' — 256 nodes, 64 in quick mode: the
// sequential baseline followed by each spectrum point.
func figure5(p *plan) assembler[*Figure5Data] {
	nodes := 4 * p.nodes()
	specs := fig4Specs()
	seq := p.seq("TSP")
	var runs []int
	for _, spec := range specs {
		runs = append(runs, p.app("TSP", victimCached(nodes, spec)))
	}
	return func(r []sweep.Result) (*Figure5Data, error) {
		d := &Figure5Data{Protocols: pointerLabels(specs), Nodes: nodes}
		for _, run := range runs {
			d.Speedup = append(d.Speedup, timeRatio(r[seq], r[run]))
		}
		return d, nil
	}
}

// Table renders the speedups.
func (d *Figure5Data) Table() *report.Table {
	t := report.NewTable(fmt.Sprintf("Figure 5: TSP on %d nodes (speedup over sequential)", d.Nodes),
		"hw pointers", "speedup")
	for i, p := range d.Protocols {
		t.AddRow(p, fmt.Sprintf("%.1f", d.Speedup[i]))
	}
	return t
}

// -------------------------------------------------------------- Figure 6

// Figure6Data is the worker-set size histogram of EVOLVE — the paper's
// Figure 6. Buckets map a worker-set size to the number of memory blocks
// whose largest simultaneous worker set had that size.
type Figure6Data struct {
	Hist  *stats.Hist
	Nodes int
}

// figure6 runs EVOLVE on 64 nodes (16 in quick mode) under the full-map
// protocol, which tracks every worker set exactly, and collects the
// histogram.
func figure6(p *plan) assembler[*Figure6Data] {
	run := p.app("EVOLVE", victimCached(p.nodes(), proto.FullMap()))
	return func(r []sweep.Result) (*Figure6Data, error) {
		return &Figure6Data{Hist: r[run].WorkerSetHist(), Nodes: p.nodes()}, nil
	}
}

// Table renders the histogram.
func (d *Figure6Data) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 6: histogram of worker-set sizes for EVOLVE (%d nodes)", d.Nodes),
		"worker set size", "memory blocks")
	for _, b := range d.Hist.Buckets() {
		t.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%d", d.Hist.Count(b)))
	}
	return t
}

// ------------------------------------------ scaling and extrapolation

// ScalingData holds TSP speedups over sequential as the machine grows,
// per protocol. Two exhibits share it: the scaling study and the
// extrapolation beyond Figure 5.
type ScalingData struct {
	Sizes     []int
	Protocols []string
	// Speedup[protocol][i] is the speedup at Sizes[i] over sequential.
	Speedup map[string][]float64
}

// tspScaling plans TSP at each machine size under each protocol: the
// sequential baseline (shared with Table 3 and Figure 5, so a shared
// runner executes it once), then each protocol at each size.
func tspScaling(p *plan, sizes []int, specs ...proto.Spec) assembler[*ScalingData] {
	seq := p.seq("TSP")
	runs := make(map[string][]int)
	for _, spec := range specs {
		for _, n := range sizes {
			runs[spec.Name] = append(runs[spec.Name], p.app("TSP", victimCached(n, spec)))
		}
	}
	return func(r []sweep.Result) (*ScalingData, error) {
		d := &ScalingData{Sizes: sizes, Protocols: specNames(specs), Speedup: make(map[string][]float64)}
		for _, name := range d.Protocols {
			for _, run := range runs[name] {
				d.Speedup[name] = append(d.Speedup[name], timeRatio(r[seq], r[run]))
			}
		}
		return d, nil
	}
}

// scalingStudy extends Figure 5's question ("what happens at 256
// nodes?") to the whole spectrum: TSP at 16, 64 and 256 nodes across four
// protocol spectrum points.
func scalingStudy(p *plan) assembler[*ScalingData] {
	sizes := []int{16, 64, 256}
	if p.Quick {
		sizes = []int{4, 16}
	}
	return tspScaling(p, sizes,
		proto.SoftwareOnly(), proto.OnePointer(proto.AckSW), proto.LimitLESS(5), proto.FullMap())
}

// extrapolation continues Figure 5's curve beyond the paper's reach.
// Figure 5 stops at 256 nodes — the largest machine NWO could simulate in
// the time the authors had; this exhibit runs TSP at 256, 512 and 1024
// nodes on the serial engine. The protocols are Figure 5's headliners: the
// full-map upper bound, the LimitLESS point the paper argues tracks it,
// and software-only as the floor — the question at 1024 nodes is whether
// the software-extended scheme still tracks full-map when the directory
// working set is 4x anything the paper measured.
func extrapolation(p *plan) assembler[*ScalingData] {
	sizes := []int{256, 512, 1024}
	if p.Quick {
		sizes = []int{8, 32}
	}
	return tspScaling(p, sizes, proto.SoftwareOnly(), proto.LimitLESS(5), proto.FullMap())
}

// Figure renders the scaling study as speedup series over machine size.
func (d *ScalingData) Figure() *report.Figure {
	f := report.NewFigure("Scaling study: TSP speedup vs machine size",
		"nodes", "speedup over sequential")
	for _, p := range d.Protocols {
		s := f.Line(p)
		for i, n := range d.Sizes {
			s.Add(float64(n), d.Speedup[p][i])
		}
	}
	return f
}

// Table renders the extrapolation as sizes × protocols, each cell the
// speedup over sequential with the per-node efficiency (speedup divided
// by node count) alongside — the number that reveals whether the curve is
// still climbing or has gone flat.
func (d *ScalingData) Table() *report.Table {
	headers := []string{"Nodes"}
	for _, p := range d.Protocols {
		headers = append(headers, p+" speedup", p+" eff")
	}
	t := report.NewTable("Extrapolation: TSP beyond Figure 5 (speedup over sequential; eff = speedup/nodes)",
		headers...)
	for i, n := range d.Sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, p := range d.Protocols {
			s := d.Speedup[p][i]
			row = append(row, fmt.Sprintf("%.1f", s), fmt.Sprintf("%.3f", s/float64(n)))
		}
		t.AddRow(row...)
	}
	return t
}

// ------------------------------------------------------ matrix registry

// Matrix names one exhibit: a job matrix paired with the renderer that
// turns its results into the paper's table, figure, or ablation. The
// registry is the single exhibit list cmd/swex resolves names against —
// every Jobs element is a canonical, hashable sweep.Job.
type Matrix struct {
	// Name is the CLI-facing exhibit name ("table1" .. "ablate-mthread").
	Name string
	// Caption is the one-line human description of the exhibit.
	Caption string
	// plan walks the exhibit's plan function: its jobs in submission
	// order and the renderer of their results.
	plan func(Options) ([]sweep.Job, renderer)
}

// renderer shapes an exhibit's results, in submission order, into its
// rendered text and the assembled data behind it.
type renderer func([]sweep.Result) (string, any, error)

// Jobs enumerates the matrix's simulation points in submission order.
func (m Matrix) Jobs(o Options) []SweepJob {
	jobs, _ := m.plan(o)
	return jobs
}

// exhibit builds a registry entry from an exhibit's plan function and the
// view that renders its data.
func exhibit[D any, V fmt.Stringer](name, caption string, build func(*plan) assembler[D], view func(D) V) Matrix {
	return Matrix{
		Name:    name,
		Caption: caption,
		plan: func(o Options) ([]sweep.Job, renderer) {
			jobs, assemble := newPlan(o, build)
			return jobs, func(r []sweep.Result) (string, any, error) {
				d, err := assemble(r)
				if err != nil {
					return "", nil, err
				}
				return view(d).String(), d, nil
			}
		},
	}
}

// Exhibit is one matrix as Render rendered it.
type Exhibit struct {
	Name, Caption string
	// Text is the rendered table or figure, Data the assembled data
	// behind it (for JSON output).
	Text string
	Data any
	// Jobs counts the matrix's simulation points, and Executed the
	// simulations run for points no earlier exhibit of the call lists.
	Jobs, Executed int
}

// Render runs the exhibits' jobs through o.Sweep as one submission, so a
// point several exhibits list runs once, and renders each exhibit from
// its own slice of the results. On failure it renders nothing and names
// the first failing exhibit and that exhibit's own job index.
func Render(o Options, ms []Matrix) ([]Exhibit, error) {
	runner := o.Sweep
	if runner == nil {
		runner = sweep.MustNewRunner(sweep.Config{})
	}
	var all []sweep.Job
	out := make([]Exhibit, len(ms))
	renders := make([]renderer, len(ms))
	for i, m := range ms {
		var jobs []sweep.Job
		jobs, renders[i] = m.plan(o)
		all = append(all, jobs...)
		out[i] = Exhibit{Name: m.Name, Caption: m.Caption, Jobs: len(jobs)}
	}
	outcomes := runner.Sweep(context.Background(), all)
	seen := make(map[string]bool)
	for i := range out {
		e := &out[i]
		own := outcomes[:e.Jobs]
		outcomes = outcomes[e.Jobs:]
		results := make([]sweep.Result, len(own))
		for j, oc := range own {
			if oc.Err != nil {
				return nil, fmt.Errorf("%s: sweep: job %d (%s): %w", e.Name, j, oc.Job, oc.Err)
			}
			results[j] = oc.Result
			if !oc.Cached && !seen[oc.Hash] {
				e.Executed++
			}
			seen[oc.Hash] = true
		}
		var err error
		if e.Text, e.Data, err = renders[i](results); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return out, nil
}

// titled renders ablation rows under the given table title.
func titled(title string) func([]AblationRow) *report.Table {
	return func(rows []AblationRow) *report.Table { return AblationTable(title, rows) }
}

// Matrices returns every exhibit in paper order: the three tables,
// Figures 2-6, the scaling study, the 1024-node extrapolation, then the
// ten ablations.
func Matrices() []Matrix {
	return []Matrix{
		exhibit("table1", "average software-extension latencies (C vs assembly)",
			table1, (*Table1Data).Table),
		exhibit("table2", "median handler cycle breakdown",
			table2, func(d *Table2Data) *Table2Data { return d }),
		exhibit("table3", "application characteristics and sequential times",
			table3, Table3Table),
		exhibit("fig2", "WORKER protocol performance vs worker-set size",
			figure2, (*Figure2Data).Figure),
		exhibit("fig3", "TSP cache-configuration study (instruction/data thrashing)",
			figure3, (*Figure3Data).Table),
		exhibit("fig4", "application speedups across the protocol spectrum",
			figure4, (*Figure4Data).Table),
		exhibit("fig5", "TSP on 256 nodes",
			figure5, (*Figure5Data).Table),
		exhibit("fig6", "EVOLVE worker-set histogram",
			figure6, (*Figure6Data).Table),
		exhibit("scaling", "TSP speedup vs machine size across the spectrum",
			scalingStudy, (*ScalingData).Figure),
		exhibit("extrapolation", "TSP at 256/512/1024 nodes, beyond Figure 5",
			extrapolation, (*ScalingData).Table),
		exhibit("ablate-localbit", "one-bit local pointer on/off",
			ablateLocalBit, titled("ablation: local bit disabled")),
		exhibit("ablate-software", "flexible C vs hand-tuned assembly handlers",
			ablateSoftware, titled("ablation: hand-tuned assembly handlers")),
		exhibit("ablate-broadcast", "DirnH1SNB,LACK vs Dir1H1SB,LACK",
			ablateBroadcast, titled("ablation: broadcast instead of software directory")),
		exhibit("ablate-batch", "read-burst batching enhancement",
			ablateBatchReads, titled("ablation: read-burst batching enabled")),
		exhibit("ablate-parinv", "sequential vs parallel invalidation transmission",
			ablateParallelInv, titled("ablation: parallel invalidation transmission")),
		exhibit("ablate-dataspec", "block-by-block protocol reconfiguration",
			ablateDataSpecific, titled("ablation: EVOLVE fitness table promoted to full-map")),
		exhibit("ablate-migratory", "migratory-data adaptation (dynamic detection)",
			ablateMigratory, titled("ablation: migratory-data read-for-ownership")),
		exhibit("ablate-assoc", "victim cache vs 2-way set-associative cache",
			ablateAssociativity, titled("ablation: associativity remedies for I/D thrashing")),
		exhibit("ablate-cico", "Check-In/Check-Out program annotations",
			ablateCICO, titled("ablation: CICO check-in after reads")),
		exhibit("ablate-mthread", "block multithreading (latency tolerance)",
			ablateMultithreading, titled("ablation: 4 hardware contexts per node")),
	}
}

// SelectMatrices resolves a front end's argument list: "all" (the whole
// registry, in order) or exhibit names.
func SelectMatrices(args []string) ([]Matrix, error) {
	if len(args) == 0 {
		return nil, errors.New("no exhibits named (want exhibit names or \"all\")")
	}
	if len(args) == 1 && args[0] == "all" {
		return Matrices(), nil
	}
	byName := make(map[string]Matrix)
	for _, m := range Matrices() {
		byName[m.Name] = m
	}
	var selected []Matrix
	for _, a := range args {
		m, ok := byName[a]
		if !ok {
			return nil, fmt.Errorf("unknown exhibit %q", a)
		}
		selected = append(selected, m)
	}
	return selected, nil
}
