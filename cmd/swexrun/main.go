// Command swexrun runs a single workload on a single machine configuration.
// It is the interactive counterpart of cmd/swex's batch experiments — the
// tool for exploring one configuration in depth. An optional mode word
// picks what it shows of the run:
//
//	swexrun [flags] [preset]          print everything the simulator observed:
//	                                  run time, per-node finish spread, traps,
//	                                  handler occupancy, message mix, cache
//	                                  behavior, and the worker-set histogram
//	swexrun trace [flags] [preset]    write the run's structured trace
//	                                  (internal/trace) as Chrome trace-event JSON
//	swexrun profile [flags] [preset]  print the trace's critical-path profile
//
// The optional positional preset names a canned configuration; it sets
// -worker, -iters, -nodes and -protocol, so none of those may be given
// with it:
//
//	fig2-point   WORKER set size 8, 10 iterations, 16 nodes, Dir_nH_5S_NB
//	table2       alias of fig2-point (the paper's Table 2 measurement run)
//
// Examples:
//
//	swexrun -app WATER -nodes 64 -protocol h5 -victim 8
//	swexrun -worker 8 -iters 10 -nodes 16 -protocol h1ack
//	swexrun trace -o trace.json fig2-point
//	swexrun trace -ring 40 -app TSP -nodes 64 -protocol h0
//	swexrun profile fig2-point
//
// Every mode is deterministic: the same arguments produce byte-identical
// output. Open trace JSON in https://ui.perfetto.dev or chrome://tracing;
// memory transactions are correlated across nodes as flows, and messages
// appear as async spans on each source node's net track. A bad flag,
// preset, protocol, application or configuration, or two inputs that both
// choose the workload (-worker with -app, a preset with a workload flag),
// exits 2 with the error.
//
// -cpuprofile and -memprofile, in every mode, write a CPU profile of the
// run and a heap profile taken at its end, in runtime/pprof format, to
// the named files (for `go tool pprof`); they change nothing printed, and
// a file that cannot be created exits 2 before anything runs.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"swex"
	"swex/cmd/internal/hostprof"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/trace"
)

// Usage errors beyond those the machine, protocol and application
// lookups name themselves.
var (
	errPreset   = errors.New("unknown preset (want fig2-point or table2)")
	errSoftware = errors.New("-software must be c or asm")
	errIters    = errors.New("-iters must be at least 1")
	errRing     = errors.New("-ring must be non-negative")
	errWorkload = errors.New("need -app, -worker, or a preset")
	errConflict = errors.New("conflicting workload inputs")
)

func main() { os.Exit(run()) }

// run is the command; it returns the exit status, so deferred profile
// writes happen before the process exits.
func run() int {
	args := os.Args[1:]
	mode := ""
	if len(args) > 0 && (args[0] == "trace" || args[0] == "profile") {
		mode, args = args[0], args[1:]
	}

	fs := flag.NewFlagSet(strings.TrimSpace("swexrun "+mode), flag.ExitOnError)
	var (
		appName   = fs.String("app", "", "application: TSP AQ SMGRID EVOLVE MP3D WATER")
		workerK   = fs.Int("worker", 0, "run WORKER with this worker-set size instead of -app")
		iters     = fs.Int("iters", 10, "WORKER iterations")
		nodes     = fs.Int("nodes", 16, "machine size")
		protoStr  = fs.String("protocol", "h5", "protocol alias: "+strings.Join(litmus.SpecAliases(), " "))
		victim    = fs.Int("victim", 0, "victim cache lines (0 = off)")
		ways      = fs.Int("ways", 0, "cache associativity (0/1 = direct-mapped)")
		threads   = fs.Int("threads", 1, "hardware contexts per node")
		pifetch   = fs.Bool("pifetch", false, "perfect instruction fetch")
		software  = fs.String("software", "c", "protocol software: c or asm")
		batch     = fs.Bool("batch", false, "read-burst batching enhancement")
		parinv    = fs.Bool("parinv", false, "parallel invalidation enhancement")
		migratory = fs.Bool("migratory", false, "migratory-data adaptation")
		verify    = fs.Bool("verify", false, "run with the coherence invariant checker")
		ring, out = new(int), new(string)
		profiles  = hostprof.Register(fs)
	)
	if mode != "" {
		fs.IntVar(ring, "ring", 0, "keep only the last N events (0 = unbounded)")
		fs.StringVar(out, "o", "", `output file ("-" or empty = stdout)`)
	}
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: swexrun [trace | profile] [flags] [fig2-point | table2]")
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: a bad flag exits 2
	usage := func(err error) int {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
		return 2
	}

	// A positional preset sets the workload flags, so it may not be
	// combined with any of them.
	switch preset := strings.ToLower(strings.Join(fs.Args(), " ")); preset {
	case "":
	case "fig2-point", "table2":
		var set string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "worker", "iters", "nodes", "protocol":
				if set == "" {
					set = f.Name
				}
			}
		})
		if set != "" {
			return usage(fmt.Errorf("%w: preset %s sets -%s", errConflict, preset, set))
		}
		*workerK, *iters, *nodes, *protoStr = 8, 10, 16, "h5"
	default:
		return usage(fmt.Errorf("%w: %q", errPreset, strings.Join(fs.Args(), " ")))
	}
	if *workerK > 0 && *appName != "" {
		return usage(fmt.Errorf("%w: -worker and -app both choose the workload", errConflict))
	}

	spec, err := litmus.SpecByAlias(strings.ToLower(*protoStr))
	if err != nil {
		return usage(err)
	}
	cfg := machine.Config{
		Nodes:           *nodes,
		Spec:            spec,
		VictimLines:     *victim,
		CacheWays:       *ways,
		PerfectIfetch:   *pifetch,
		BatchReads:      *batch,
		ParallelInv:     *parinv,
		MigratoryDetect: *migratory,
		ThreadsPerNode:  *threads,
	}
	switch strings.ToLower(*software) {
	case "c":
	case "asm":
		cfg.Software = machine.TunedASM
	default:
		return usage(fmt.Errorf("%w: got %q", errSoftware, *software))
	}
	if *ring < 0 {
		return usage(fmt.Errorf("%w: got %d", errRing, *ring))
	}
	var sink *trace.Collector
	if mode != "" {
		if *ring > 0 {
			sink = trace.NewRing(*ring)
		} else {
			sink = trace.NewCollector()
		}
		cfg.Trace = sink
	}

	var app swex.App
	switch {
	case *workerK > 0:
		if *iters < 1 {
			return usage(fmt.Errorf("%w: got %d", errIters, *iters))
		}
		app = swex.Worker(*workerK, *iters)
	case *appName != "":
		if app, err = swex.AppByName(strings.ToUpper(*appName)); err != nil {
			return usage(err)
		}
	default:
		fs.Usage()
		return usage(errWorkload)
	}

	// A bad configuration is reported before a profile file is created.
	if err := cfg.Validate(); err != nil {
		return usage(err)
	}
	stopProfiles, err := profiles.Start(fs.Name())
	if err != nil {
		return usage(err)
	}
	defer stopProfiles()
	m, err := machine.New(cfg)
	if err != nil {
		return usage(err)
	}
	if *verify {
		m.Fabric.EnableChecker()
	}
	res, err := m.Run(app.Setup(m).Thread, 0)
	if err != nil {
		log.Print(err)
		return 1
	}

	if mode == "" {
		report(app, m, res)
		return 0
	}
	w := os.Stdout
	if *out != "" && *out != "-" {
		if w, err = os.Create(*out); err != nil {
			log.Print(err)
			return 1
		}
	}
	events := sink.Events()
	if mode == "trace" {
		err = trace.WritePerfetto(w, events, cfg.Nodes)
	} else {
		err = profile(w, app, cfg, res, events)
	}
	if err == nil && w != os.Stdout {
		err = w.Close()
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	if mode == "trace" {
		fmt.Fprintf(os.Stderr, "swexrun trace: %s on %d nodes, %s: %d cycles, %d events (%d collected)\n",
			app.Name, cfg.Nodes, cfg.Spec.Name, res.Time, sink.Total(), len(events))
	}
	return 0
}

// profile prints the critical-path attribution of a traced run.
func profile(w io.Writer, app swex.App, cfg machine.Config, res machine.Result, events []trace.Event) error {
	bw := bufio.NewWriter(w)
	recs := trace.Attribute(events)
	prof := trace.Summarize(recs)
	fmt.Fprintf(bw, "%s on %d nodes, %s (%s software): %d cycles, %d transactions\n\n",
		app.Name, cfg.Nodes, cfg.Spec.Name, cfg.Software, res.Time, len(recs))
	fmt.Fprintf(bw, "%s\n", prof.PathTable())
	fmt.Fprintf(bw, "%s\n", prof.WorkTable())
	return bw.Flush()
}

// report prints the run's statistics: timing, traps, cache behavior, the
// message mix and the worker-set histogram.
func report(app swex.App, m *machine.Machine, res machine.Result) {
	cfg := m.Cfg
	fmt.Printf("%s on %d nodes, %s (%s software)\n", app.Name, cfg.Nodes, cfg.Spec.Name, cfg.Software)
	fmt.Printf("  run time          %d cycles (%.3f ms at 33 MHz)\n", res.Time, 1000*res.Time.Seconds())
	min, max := res.Finish[0], res.Finish[0]
	for _, f := range res.Finish {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	fmt.Printf("  finish spread     %d .. %d cycles\n", min, max)
	fmt.Printf("  messages          %d (mean hops %.2f)\n", res.Messages, m.Net.MeanHops())
	fmt.Printf("  software traps    %d\n", res.Traps)
	fmt.Printf("  handler cycles    %d\n", res.HandlerCycles)
	fmt.Printf("  busy retries      %d\n", res.BusyRetries)

	// Cache behavior, machine-wide.
	var hits, misses, ihits, imisses, victims uint64
	for n := 0; n < cfg.Nodes; n++ {
		st := m.Fabric.Cache(mem.NodeID(n)).Cache().Stats
		hits += st.Hits
		misses += st.Misses
		ihits += st.IHits
		imisses += st.IMisses
		victims += st.VictimHits
	}
	if hits+misses > 0 {
		fmt.Printf("  data cache        %.2f%% hit (%d hits, %d misses, %d victim hits)\n",
			100*float64(hits)/float64(hits+misses), hits, misses, victims)
	}
	if ihits+imisses > 0 {
		fmt.Printf("  instruction cache %.2f%% hit\n", 100*float64(ihits)/float64(ihits+imisses))
	}

	// Message mix.
	fmt.Printf("  message mix      ")
	var kinds []string
	for _, name := range res.Counters.Names() {
		if strings.HasPrefix(name, "msg.") {
			kinds = append(kinds, name)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf(" %s=%d", strings.TrimPrefix(k, "msg."), res.Counters.Get(k))
	}
	fmt.Println()

	// Handler latency summary when software ran.
	if res.Ledger != nil && res.Ledger.N() > 0 {
		fmt.Printf("  handler latency   read mean %.0f, write mean %.0f (n=%d)\n",
			res.Ledger.Mean(swex.ReadHandler, -1), res.Ledger.Mean(swex.WriteHandler, -1),
			res.Ledger.N())
	}

	// Worker-set histogram, compacted.
	fmt.Printf("  worker sets      ")
	for _, b := range res.WorkerSets.Buckets() {
		fmt.Printf(" %d:%d", b, res.WorkerSets.Count(b))
	}
	fmt.Println()
}
