package swex

import (
	"context"
	"errors"
	"fmt"

	"swex/internal/apps"
	"swex/internal/machine"
	"swex/internal/memtier"
	"swex/internal/proto"
	"swex/internal/report"
	"swex/internal/sim"
	"swex/internal/stats"
	"swex/internal/sweep"
)

// Package-level note: every experiment function is deterministic — the
// same Options produce bit-identical results, at any worker count.
//
// Each experiment is split into a job-matrix builder (XxxJobs) and an
// assembler (Xxx). The builder enumerates the experiment's simulation
// points as canonical sweep jobs; the assembler runs them through a sweep
// runner and shapes the results into the paper's table or figure. Builders
// and assemblers share the same loop structure, so results are consumed by
// index. Running several experiments through one shared Runner (as cmd/swex
// does) deduplicates the simulation points they share — for example the
// sequential baselines common to Table 3, Figure 4, Figure 5, and the
// scaling study run once, not four times.

// Options controls how an experiment runs.
type Options struct {
	// Quick shrinks problem sizes and machine counts so the experiment
	// completes in a few seconds, preserving every qualitative shape.
	// Used by tests and short benchmark runs.
	Quick bool
	// Sweep is the runner experiments execute on. Nil uses a private
	// in-memory runner with one worker per core. Sharing one runner
	// across experiments shares its result cache (and, when configured
	// with a cache directory, persists results across processes).
	Sweep *Sweeper
}

// run executes the matrix with fail-fast semantics: results in submission
// order, or the first failure by submission order.
func (o Options) run(jobs []sweep.Job) ([]sweep.Result, error) {
	r := o.Sweep
	if r == nil {
		r = sweep.MustNewRunner(sweep.Config{})
	}
	return r.Run(context.Background(), jobs)
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

// table1Shape returns the readers-per-block slices and iteration count.
func table1Shape(o Options) (readers []int, iters int) {
	readers = []int{8, 12, 15}
	iters = 10
	if o.Quick {
		readers = []int{8}
		iters = 4
	}
	return readers, iters
}

// Table1Jobs enumerates the WORKER runs behind Table 1: one job per
// (readers, software implementation) pair, software-kind innermost.
func Table1Jobs(o Options) []sweep.Job {
	readers, iters := table1Shape(o)
	var jobs []sweep.Job
	for _, k := range readers {
		for _, sw := range []machine.SoftwareKind{machine.FlexibleC, machine.TunedASM} {
			jobs = append(jobs, sweep.WorkerJob(k, iters, machine.Config{
				Nodes: 16, Spec: proto.LimitLESS(5), Software: sw,
			}))
		}
	}
	return jobs
}

// Table1 measures software handler latencies by running the WORKER
// benchmark on a 16-node machine, exactly as the paper does. (The largest
// worker set on 16 nodes with a distinct writer is 15 readers; the paper's
// 16-reader row becomes 15 here.)
func Table1(o Options) (*Table1Data, error) {
	readers, _ := table1Shape(o)
	results, err := o.run(Table1Jobs(o))
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	d := &Table1Data{Readers: readers}
	for i := range readers {
		c, a := results[i*2], results[i*2+1]
		d.CRead = append(d.CRead, c.ReadMean)
		d.CWrite = append(d.CWrite, c.WriteMean)
		d.ARead = append(d.ARead, a.ReadMean)
		d.AWrite = append(d.AWrite, a.WriteMean)
	}
	return d, nil
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

// Table2Jobs enumerates the two WORKER runs behind Table 2 (flexible C,
// then assembly), 8 readers per block on 16 nodes. These are the same
// simulation points as Table 1's 8-reader row, so a shared runner computes
// them once for both tables.
func Table2Jobs(o Options) []sweep.Job {
	_, iters := table1Shape(o)
	var jobs []sweep.Job
	for _, sw := range []machine.SoftwareKind{machine.FlexibleC, machine.TunedASM} {
		jobs = append(jobs, sweep.WorkerJob(8, iters, machine.Config{
			Nodes: 16, Spec: proto.LimitLESS(5), Software: sw,
		}))
	}
	return jobs
}

// Table2 reproduces the per-activity cycle accounting by running WORKER
// with 8 readers per block on 16 nodes and selecting the median request of
// each type.
func Table2(o Options) (*Table2Data, error) {
	results, err := o.run(Table2Jobs(o))
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	d := &Table2Data{}
	for i, sw := range []machine.SoftwareKind{machine.FlexibleC, machine.TunedASM} {
		res := results[i]
		if !res.HasReadMedian || !res.HasWriteMedian {
			return nil, fmt.Errorf("table2 %s: no handler records", sw)
		}
		if sw == machine.FlexibleC {
			d.CRead, d.CWrite = res.ReadMedian.Stats(), res.WriteMedian.Stats()
		} else {
			d.ARead, d.AWrite = res.ReadMedian.Stats(), res.WriteMedian.Stats()
		}
	}
	return d, nil
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

// figure2Specs are the protocols Figure 2 sweeps (solid curves are the
// Alewife-implementable ones; dashed are the simulator-only one-pointer
// variants).
func figure2Specs() []proto.Spec {
	return []proto.Spec{
		proto.SoftwareOnly(),
		proto.OnePointer(proto.AckSW),
		proto.OnePointer(proto.AckLACK),
		proto.OnePointer(proto.AckHW),
		proto.LimitLESS(2),
		proto.LimitLESS(5),
	}
}

// figure2Shape returns the worker-set sizes and iteration count.
func figure2Shape(o Options) (sizes []int, iters int) {
	sizes = []int{1, 2, 4, 8, 12, 15}
	iters = 10
	if o.Quick {
		sizes = []int{2, 8}
		iters = 4
	}
	return sizes, iters
}

// Figure2Jobs enumerates the WORKER protocol sweep: for each worker-set
// size, the full-map baseline followed by each spectrum point.
func Figure2Jobs(o Options) []sweep.Job {
	sizes, iters := figure2Shape(o)
	var jobs []sweep.Job
	for _, k := range sizes {
		jobs = append(jobs, sweep.WorkerJob(k, iters, machine.Config{Nodes: 16, Spec: proto.FullMap()}))
		for _, spec := range figure2Specs() {
			jobs = append(jobs, sweep.WorkerJob(k, iters, machine.Config{Nodes: 16, Spec: spec}))
		}
	}
	return jobs
}

// Figure2 runs the WORKER worker-set-size sweep on 16 nodes.
func Figure2(o Options) (*Figure2Data, error) {
	sizes, _ := figure2Shape(o)
	specs := figure2Specs()
	results, err := o.run(Figure2Jobs(o))
	if err != nil {
		return nil, fmt.Errorf("figure2: %w", err)
	}
	d := &Figure2Data{Sizes: sizes, Ratio: make(map[string][]float64)}
	for _, s := range specs {
		d.Protocols = append(d.Protocols, s.Name)
	}
	stride := 1 + len(specs)
	for i := range sizes {
		full := results[i*stride]
		for j, spec := range specs {
			res := results[i*stride+1+j]
			d.Ratio[spec.Name] = append(d.Ratio[spec.Name],
				float64(res.Time)/float64(full.Time))
		}
	}
	return d, nil
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

// table3Names lists the applications in registry (Figure 4) order.
func table3Names(o Options) []string {
	registry := apps.Registry()
	if o.Quick {
		registry = apps.QuickRegistry()
	}
	var names []string
	for _, prog := range registry {
		names = append(names, prog.Name)
	}
	return names
}

// Table3Jobs enumerates the sequential baseline of each application: one
// node, full-map, victim caching — the same configuration the parallel
// studies normalize against, so a shared runner computes each baseline
// once across Table 3, Figure 4, Figure 5, and the scaling study.
func Table3Jobs(o Options) []sweep.Job {
	var jobs []sweep.Job
	for _, name := range table3Names(o) {
		jobs = append(jobs, sweep.AppJob(name, o.Quick, machine.Config{
			Nodes: 1, Spec: proto.FullMap(), VictimLines: 8,
		}))
	}
	return jobs
}

// Table3 measures each application's sequential time on one node at the
// 33 MHz Alewife clock. Languages are the paper's; sizes are this
// reproduction's scaled instances.
func Table3(o Options) ([]Table3Row, error) {
	meta := map[string][2]string{
		"TSP":    {"Mul-T", "11 city tour"},
		"AQ":     {"Semi-C", "x^4y^4 over ((0,0),(2,2))"},
		"SMGRID": {"Mul-T", "65 x 65"},
		"EVOLVE": {"Mul-T", "12 dimensions"},
		"MP3D":   {"C", "4,096 particles"},
		"WATER":  {"C", "64 molecules"},
	}
	results, err := o.run(Table3Jobs(o))
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	var rows []Table3Row
	for i, name := range table3Names(o) {
		m := meta[name]
		rows = append(rows, Table3Row{
			Name: name, Language: m[0], Size: m[1],
			SeqSeconds: results[i].Time.Seconds(), SeqCycles: results[i].Time,
		})
	}
	return rows, nil
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

// pointerLabel maps a spec to its Figure 4 x-axis position.
func pointerLabel(s proto.Spec) string {
	switch {
	case s.FullMap:
		return "n"
	default:
		return fmt.Sprintf("%d", s.HWPointers)
	}
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

// figure3Modes are the cache configurations of the TSP study.
func figure3Modes() []string { return []string{"base", "perfect-ifetch", "victim-cache"} }

// figure3Apply sets one cache mode on a configuration.
func figure3Apply(mode string, c *machine.Config) {
	switch mode {
	case "perfect-ifetch":
		c.PerfectIfetch = true
	case "victim-cache":
		c.VictimLines = 8
	}
}

// Figure3Jobs enumerates the TSP thrashing study: for each cache mode, the
// sequential baseline followed by each spectrum point.
func Figure3Jobs(o Options) []sweep.Job {
	nodes := 64
	if o.Quick {
		nodes = 16
	}
	var jobs []sweep.Job
	for _, mode := range figure3Modes() {
		seq := machine.Config{Nodes: 1, Spec: proto.FullMap()}
		figure3Apply(mode, &seq)
		jobs = append(jobs, sweep.AppJob("TSP", o.Quick, seq))
		for _, spec := range fig4Specs() {
			cfg := machine.Config{Nodes: nodes, Spec: spec}
			figure3Apply(mode, &cfg)
			jobs = append(jobs, sweep.AppJob("TSP", o.Quick, cfg))
		}
	}
	return jobs
}

// Figure3 reproduces the TSP instruction/data thrashing study on 64 nodes
// (16 in quick mode).
func Figure3(o Options) (*Figure3Data, error) {
	specs := fig4Specs()
	results, err := o.run(Figure3Jobs(o))
	if err != nil {
		return nil, fmt.Errorf("figure3: %w", err)
	}
	d := &Figure3Data{
		Modes:   figure3Modes(),
		Speedup: make(map[string][]float64),
		Time:    make(map[string][]sim.Cycle),
	}
	for _, s := range specs {
		d.Protocols = append(d.Protocols, pointerLabel(s))
	}
	stride := 1 + len(specs)
	for mi, mode := range d.Modes {
		seq := results[mi*stride]
		for j := range specs {
			res := results[mi*stride+1+j]
			d.Speedup[mode] = append(d.Speedup[mode], float64(seq.Time)/float64(res.Time))
			d.Time[mode] = append(d.Time[mode], res.Time)
		}
	}
	return d, nil
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

// Figure4Jobs enumerates the application studies: for each application,
// the sequential baseline (shared with Table 3) followed by each spectrum
// point, victim caching throughout.
func Figure4Jobs(o Options) []sweep.Job {
	nodes := 64
	if o.Quick {
		nodes = 16
	}
	var jobs []sweep.Job
	for _, name := range table3Names(o) {
		jobs = append(jobs, sweep.AppJob(name, o.Quick, machine.Config{
			Nodes: 1, Spec: proto.FullMap(), VictimLines: 8,
		}))
		for _, spec := range fig4Specs() {
			jobs = append(jobs, sweep.AppJob(name, o.Quick, machine.Config{
				Nodes: nodes, Spec: spec, VictimLines: 8,
			}))
		}
	}
	return jobs
}

// Figure4 runs every application across the spectrum with victim caching
// enabled (the paper's default after the TSP study), on 64 nodes (16 in
// quick mode, with reduced problem sizes).
func Figure4(o Options) (*Figure4Data, error) {
	nodes := 64
	if o.Quick {
		nodes = 16
	}
	specs := fig4Specs()
	results, err := o.run(Figure4Jobs(o))
	if err != nil {
		return nil, fmt.Errorf("figure4: %w", err)
	}
	d := &Figure4Data{Speedup: make(map[string][]float64), Nodes: nodes}
	for _, s := range specs {
		d.Protocols = append(d.Protocols, pointerLabel(s))
	}
	stride := 1 + len(specs)
	for ai, name := range table3Names(o) {
		d.Apps = append(d.Apps, name)
		seq := results[ai*stride]
		for j := range specs {
			res := results[ai*stride+1+j]
			d.Speedup[name] = append(d.Speedup[name],
				float64(seq.Time)/float64(res.Time))
		}
	}
	return d, nil
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

// Figure5Jobs enumerates the large-machine TSP run: the sequential
// baseline followed by each spectrum point on 256 nodes (64 in quick mode).
func Figure5Jobs(o Options) []sweep.Job {
	nodes := 256
	if o.Quick {
		nodes = 64
	}
	jobs := []sweep.Job{sweep.AppJob("TSP", o.Quick, machine.Config{
		Nodes: 1, Spec: proto.FullMap(), VictimLines: 8,
	})}
	for _, spec := range fig4Specs() {
		jobs = append(jobs, sweep.AppJob("TSP", o.Quick, machine.Config{
			Nodes: nodes, Spec: spec, VictimLines: 8,
		}))
	}
	return jobs
}

// Figure5 runs TSP on 256 nodes with victim caching (64 in quick mode).
func Figure5(o Options) (*Figure5Data, error) {
	nodes := 256
	if o.Quick {
		nodes = 64
	}
	results, err := o.run(Figure5Jobs(o))
	if err != nil {
		return nil, fmt.Errorf("figure5: %w", err)
	}
	seq := results[0]
	d := &Figure5Data{Nodes: nodes}
	for j, spec := range fig4Specs() {
		d.Protocols = append(d.Protocols, pointerLabel(spec))
		d.Speedup = append(d.Speedup, float64(seq.Time)/float64(results[1+j].Time))
	}
	return d, nil
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

// Figure6Jobs enumerates the single EVOLVE run behind Figure 6.
func Figure6Jobs(o Options) []sweep.Job {
	nodes := 64
	if o.Quick {
		nodes = 16
	}
	return []sweep.Job{sweep.AppJob("EVOLVE", o.Quick, machine.Config{
		Nodes: nodes, Spec: proto.FullMap(), VictimLines: 8,
	})}
}

// Figure6 runs EVOLVE on 64 nodes under the full-map protocol (which
// tracks every worker set exactly) and collects the histogram.
func Figure6(o Options) (*Figure6Data, error) {
	nodes := 64
	if o.Quick {
		nodes = 16
	}
	results, err := o.run(Figure6Jobs(o))
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}
	return &Figure6Data{Hist: results[0].WorkerSetHist(), Nodes: nodes}, nil
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

// ------------------------------------------------------- scaling study

// ScalingData holds speedups as the machine grows, per protocol — the
// extension of Figure 5's question ("what happens at 256 nodes?") to the
// whole spectrum.
type ScalingData struct {
	Sizes     []int
	Protocols []string
	// Speedup[protocol][i] is the speedup at Sizes[i] over sequential.
	Speedup map[string][]float64
}

// scalingShape returns the machine sizes and protocol points of the study.
func scalingShape(o Options) (sizes []int, specs []proto.Spec) {
	sizes = []int{16, 64, 256}
	if o.Quick {
		sizes = []int{4, 16}
	}
	specs = []proto.Spec{
		proto.SoftwareOnly(),
		proto.OnePointer(proto.AckSW),
		proto.LimitLESS(5),
		proto.FullMap(),
	}
	return sizes, specs
}

// ScalingJobs enumerates the scaling study: the sequential TSP baseline
// (shared with Table 3 and Figure 5), then each protocol at each size.
func ScalingJobs(o Options) []sweep.Job {
	sizes, specs := scalingShape(o)
	jobs := []sweep.Job{sweep.AppJob("TSP", o.Quick, machine.Config{
		Nodes: 1, Spec: proto.FullMap(), VictimLines: 8,
	})}
	for _, spec := range specs {
		for _, n := range sizes {
			jobs = append(jobs, sweep.AppJob("TSP", o.Quick, machine.Config{
				Nodes: n, Spec: spec, VictimLines: 8,
			}))
		}
	}
	return jobs
}

// ScalingStudy runs TSP at increasing machine sizes across four protocol
// spectrum points.
func ScalingStudy(o Options) (*ScalingData, error) {
	sizes, specs := scalingShape(o)
	results, err := o.run(ScalingJobs(o))
	if err != nil {
		return nil, fmt.Errorf("scaling: %w", err)
	}
	seq := results[0]
	d := &ScalingData{Sizes: sizes, Speedup: make(map[string][]float64)}
	for _, s := range specs {
		d.Protocols = append(d.Protocols, s.Name)
	}
	for si, spec := range specs {
		for ni := range sizes {
			res := results[1+si*len(sizes)+ni]
			d.Speedup[spec.Name] = append(d.Speedup[spec.Name],
				float64(seq.Time)/float64(res.Time))
		}
	}
	return d, nil
}

// Figure renders the study as speedup series over machine size.
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

// -------------------------------------------------------- extrapolation

// ExtrapolationData holds TSP speedups and per-node efficiencies at
// machine sizes beyond the paper's reach. Figure 5 stops at 256 nodes —
// the largest machine NWO could simulate in the time the authors had;
// this exhibit continues the same curve to 512 and 1024 nodes on the
// serial engine.
type ExtrapolationData struct {
	Sizes     []int
	Protocols []string
	// Speedup[protocol][i] is the speedup at Sizes[i] over sequential.
	Speedup map[string][]float64
}

// extrapolationShape returns the machine sizes and protocol points. The
// protocols are Figure 5's headliners: the full-map upper bound, the
// LimitLESS point the paper argues tracks it, and software-only as the
// floor — the question at 1024 nodes is whether the software-extended
// scheme still tracks full-map when the directory working set is 4x
// anything the paper measured.
func extrapolationShape(o Options) (sizes []int, specs []proto.Spec) {
	sizes = []int{256, 512, 1024}
	if o.Quick {
		sizes = []int{8, 32}
	}
	specs = []proto.Spec{
		proto.SoftwareOnly(),
		proto.LimitLESS(5),
		proto.FullMap(),
	}
	return sizes, specs
}

// ExtrapolationJobs enumerates the extrapolation: the sequential TSP
// baseline (the same job the scaling study and Figure 5 submit, so a
// shared runner executes it once), then each protocol at each size.
func ExtrapolationJobs(o Options) []sweep.Job {
	sizes, specs := extrapolationShape(o)
	jobs := []sweep.Job{sweep.AppJob("TSP", o.Quick, machine.Config{
		Nodes: 1, Spec: proto.FullMap(), VictimLines: 8,
	})}
	for _, spec := range specs {
		for _, n := range sizes {
			jobs = append(jobs, sweep.AppJob("TSP", o.Quick, machine.Config{
				Nodes: n, Spec: spec, VictimLines: 8,
			}))
		}
	}
	return jobs
}

// Extrapolation runs TSP at 256, 512, and 1024 nodes across three
// protocol spectrum points.
func Extrapolation(o Options) (*ExtrapolationData, error) {
	sizes, specs := extrapolationShape(o)
	results, err := o.run(ExtrapolationJobs(o))
	if err != nil {
		return nil, fmt.Errorf("extrapolation: %w", err)
	}
	seq := results[0]
	d := &ExtrapolationData{Sizes: sizes, Speedup: make(map[string][]float64)}
	for _, s := range specs {
		d.Protocols = append(d.Protocols, s.Name)
	}
	for si, spec := range specs {
		for ni := range sizes {
			res := results[1+si*len(sizes)+ni]
			d.Speedup[spec.Name] = append(d.Speedup[spec.Name],
				float64(seq.Time)/float64(res.Time))
		}
	}
	return d, nil
}

// Table renders the exhibit as sizes × protocols, each cell the speedup
// over sequential with the per-node efficiency (speedup divided by node
// count) alongside — the number that reveals whether the curve is still
// climbing or has gone flat.
func (d *ExtrapolationData) Table() *report.Table {
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

// ---------------------------------------------------------------- Tiers

// TiersData holds WORKER run times across the machine-spectrum families
// (flat, disaggregated, hybrid DRAM/NVM) for each protocol, normalized to
// the flat machine's full-map time. This exhibit extends the paper's
// protocol spectrum along the orthogonal memory-system axis: the same
// software-extended directory spectrum, re-costed on machines the paper's
// hardware could not build.
type TiersData struct {
	Families  []string
	Protocols []string
	// Ratio[family][protocol index] = run time / flat full-map run time.
	Ratio map[string][]float64
}

// tiersFamilies returns the memory-system families the exhibit sweeps, in
// column order, flat first (its full-map point is the normalization base).
func tiersFamilies() []struct {
	Name string
	Cfg  memtier.Config
} {
	return []struct {
		Name string
		Cfg  memtier.Config
	}{
		{"flat", memtier.Config{}},
		{"disaggregated", memtier.DefaultDisaggregated()},
		{"nvm", memtier.DefaultTiered()},
	}
}

// tiersSpecs returns the protocols the exhibit sweeps: the spectrum's
// endpoints and middle, plus the directoryless shared-LLC machine — the
// one protocol point that only exists on the memory-system axis (no
// sharer tracking at all; every access is a direct home access).
func tiersSpecs() []proto.Spec {
	return []proto.Spec{
		proto.FullMap(),
		proto.OnePointer(proto.AckHW),
		proto.LimitLESS(5),
		proto.SoftwareOnly(),
		proto.Directoryless(),
	}
}

// tiersShape returns the WORKER size and iteration count.
func tiersShape(o Options) (setSize, iters int) {
	if o.Quick {
		return 4, 4
	}
	return 8, 10
}

// TiersJobs enumerates the machine-spectrum sweep: for each memory-system
// family, each protocol runs the same WORKER instance on 16 nodes.
func TiersJobs(o Options) []sweep.Job {
	setSize, iters := tiersShape(o)
	var jobs []sweep.Job
	for _, fam := range tiersFamilies() {
		for _, spec := range tiersSpecs() {
			jobs = append(jobs, sweep.WorkerJob(setSize, iters, machine.Config{
				Nodes: 16, Spec: spec, MemTier: fam.Cfg,
			}))
		}
	}
	return jobs
}

// Tiers runs the WORKER machine-spectrum sweep.
func Tiers(o Options) (*TiersData, error) {
	families := tiersFamilies()
	specs := tiersSpecs()
	results, err := o.run(TiersJobs(o))
	if err != nil {
		return nil, fmt.Errorf("tiers: %w", err)
	}
	d := &TiersData{Ratio: make(map[string][]float64)}
	for _, fam := range families {
		d.Families = append(d.Families, fam.Name)
	}
	for _, s := range specs {
		d.Protocols = append(d.Protocols, s.Name)
	}
	base := results[0] // flat full-map
	for fi, fam := range families {
		for si := range specs {
			res := results[fi*len(specs)+si]
			d.Ratio[fam.Name] = append(d.Ratio[fam.Name],
				float64(res.Time)/float64(base.Time))
		}
	}
	return d, nil
}

// Table renders the sweep as protocols × families, flat full-map = 1.00.
func (d *TiersData) Table() *report.Table {
	headers := append([]string{"Protocol"}, d.Families...)
	t := report.NewTable("Machine spectrum: WORKER run time across memory-system families (16 nodes, flat full-map = 1.00)",
		headers...)
	for si, p := range d.Protocols {
		row := []string{p}
		for _, fam := range d.Families {
			row = append(row, fmt.Sprintf("%.2f", d.Ratio[fam][si]))
		}
		t.AddRow(row...)
	}
	return t
}

// ------------------------------------------------------ matrix registry

// Matrix names one exhibit: a job-matrix builder paired with the
// assembler/renderer that turns its results into the paper's table,
// figure, or ablation. The registry is the single exhibit list cmd/swex
// resolves names against — every Jobs() element is a canonical, hashable
// sweep.Job.
type Matrix struct {
	// Name is the CLI-facing exhibit name ("table1" .. "ablate-mthread").
	Name string
	// Caption is the one-line human description of the exhibit.
	Caption string
	// Jobs enumerates the matrix's simulation points in submission order.
	Jobs func(Options) []SweepJob
	// Render runs the matrix through Options.Sweep and returns the
	// rendered exhibit plus the assembled data behind it (for JSON
	// output). Both are pure functions of the job results, so they are
	// byte-identical at any worker count and with or without a warm cache.
	Render func(Options) (string, any, error)
}

// exhibit builds a registry entry from a matrix builder, the assembler
// that runs it, and the view that renders the assembled data.
func exhibit[D any, V fmt.Stringer](name, caption string, jobs func(Options) []sweep.Job,
	assemble func(Options) (D, error), view func(D) V) Matrix {
	return Matrix{Name: name, Caption: caption, Jobs: jobs, Render: func(o Options) (string, any, error) {
		d, err := assemble(o)
		if err != nil {
			return "", nil, err
		}
		return view(d).String(), d, nil
	}}
}

// titled renders ablation rows under the given table title.
func titled(title string) func([]AblationRow) *report.Table {
	return func(rows []AblationRow) *report.Table { return AblationTable(title, rows) }
}

// Matrices returns every exhibit in paper order: the three tables,
// Figures 2-6, the scaling study, the 1024-node extrapolation, the
// machine-spectrum (memory-tier) study, then the ten ablations.
func Matrices() []Matrix {
	return []Matrix{
		exhibit("table1", "average software-extension latencies (C vs assembly)",
			Table1Jobs, Table1, (*Table1Data).Table),
		exhibit("table2", "median handler cycle breakdown",
			Table2Jobs, Table2, func(d *Table2Data) *Table2Data { return d }),
		exhibit("table3", "application characteristics and sequential times",
			Table3Jobs, Table3, Table3Table),
		exhibit("fig2", "WORKER protocol performance vs worker-set size",
			Figure2Jobs, Figure2, (*Figure2Data).Figure),
		exhibit("fig3", "TSP cache-configuration study (instruction/data thrashing)",
			Figure3Jobs, Figure3, (*Figure3Data).Table),
		exhibit("fig4", "application speedups across the protocol spectrum",
			Figure4Jobs, Figure4, (*Figure4Data).Table),
		exhibit("fig5", "TSP on 256 nodes",
			Figure5Jobs, Figure5, (*Figure5Data).Table),
		exhibit("fig6", "EVOLVE worker-set histogram",
			Figure6Jobs, Figure6, (*Figure6Data).Table),
		exhibit("scaling", "TSP speedup vs machine size across the spectrum",
			ScalingJobs, ScalingStudy, (*ScalingData).Figure),
		exhibit("extrapolation", "TSP at 256/512/1024 nodes, beyond Figure 5",
			ExtrapolationJobs, Extrapolation, (*ExtrapolationData).Table),
		exhibit("tiers", "WORKER across memory-system families (flat, disaggregated, NVM, directoryless)",
			TiersJobs, Tiers, (*TiersData).Table),
		exhibit("ablate-localbit", "one-bit local pointer on/off",
			AblateLocalBitJobs, AblateLocalBit, titled("ablation: local bit disabled")),
		exhibit("ablate-software", "flexible C vs hand-tuned assembly handlers",
			AblateSoftwareJobs, AblateSoftware, titled("ablation: hand-tuned assembly handlers")),
		exhibit("ablate-broadcast", "DirnH1SNB,LACK vs Dir1H1SB,LACK",
			AblateBroadcastJobs, AblateBroadcast, titled("ablation: broadcast instead of software directory")),
		exhibit("ablate-batch", "read-burst batching enhancement",
			AblateBatchReadsJobs, AblateBatchReads, titled("ablation: read-burst batching enabled")),
		exhibit("ablate-parinv", "sequential vs parallel invalidation transmission",
			AblateParallelInvJobs, AblateParallelInv, titled("ablation: parallel invalidation transmission")),
		exhibit("ablate-dataspec", "block-by-block protocol reconfiguration",
			AblateDataSpecificJobs, AblateDataSpecific, titled("ablation: EVOLVE fitness table promoted to full-map")),
		exhibit("ablate-migratory", "migratory-data adaptation (dynamic detection)",
			AblateMigratoryJobs, AblateMigratory, titled("ablation: migratory-data read-for-ownership")),
		exhibit("ablate-assoc", "victim cache vs 2-way set-associative cache",
			AblateAssociativityJobs, AblateAssociativity, titled("ablation: associativity remedies for I/D thrashing")),
		exhibit("ablate-cico", "Check-In/Check-Out program annotations",
			AblateCICOJobs, AblateCICO, titled("ablation: CICO check-in after reads")),
		exhibit("ablate-mthread", "block multithreading (latency tolerance)",
			AblateMultithreadingJobs, AblateMultithreading, titled("ablation: 4 hardware contexts per node")),
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
