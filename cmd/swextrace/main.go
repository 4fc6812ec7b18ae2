// Command swextrace runs one workload under the structured tracing
// subsystem (internal/trace) and either exports the run as a Chrome/
// Perfetto trace or prints the aggregate critical-path profile.
//
// Modes:
//
//	swextrace [flags] [preset]          write Chrome trace-event JSON (-o)
//	swextrace profile [flags] [preset]  print the critical-path profile
//
// The optional positional preset names a canned configuration:
//
//	fig2-point   WORKER set size 8, 10 iterations, 16 nodes, Dir_nH_5S_NB
//	table2       alias of fig2-point (the paper's Table 2 measurement run)
//
// Examples:
//
//	swextrace -o trace.json fig2-point
//	swextrace profile fig2-point
//	swextrace -app WATER -nodes 64 -protocol h5 -o water.json
//
// Traces are deterministic: the same configuration produces byte-identical
// output on every run. Open the JSON in https://ui.perfetto.dev or
// chrome://tracing; memory transactions are correlated across nodes as
// flows, messages appear as async spans on each source node's net track.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"swex"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/trace"
)

func main() {
	args := os.Args[1:]
	mode := "trace"
	if len(args) > 0 && (args[0] == "trace" || args[0] == "profile") {
		mode = args[0]
		args = args[1:]
	}

	fs := flag.NewFlagSet("swextrace "+mode, flag.ExitOnError)
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
		ring      = fs.Int("ring", 0, "keep only the last N events (0 = unbounded)")
		out       = fs.String("o", "", `output file ("-" or empty = stdout)`)
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	// A positional preset overrides the workload flags.
	switch strings.ToLower(strings.Join(fs.Args(), " ")) {
	case "":
	case "fig2-point", "table2":
		*workerK, *iters, *nodes, *protoStr = 8, 10, 16, "h5"
	default:
		log.Fatalf("swextrace: unknown preset %q (want fig2-point or table2)", strings.Join(fs.Args(), " "))
	}

	spec, err := litmus.SpecByAlias(strings.ToLower(*protoStr))
	if err != nil {
		log.Fatalf("swextrace: unknown protocol %q", *protoStr)
	}

	var sink *trace.Collector
	if *ring > 0 {
		sink = trace.NewRing(*ring)
	} else {
		sink = trace.NewCollector()
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
		Trace:           sink,
	}
	if strings.ToLower(*software) == "asm" {
		cfg.Software = machine.TunedASM
	}

	var app swex.App
	switch {
	case *workerK > 0:
		app = swex.Worker(*workerK, *iters)
	case *appName != "":
		var err error
		app, err = swex.AppByName(strings.ToUpper(*appName))
		if err != nil {
			log.Fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "swextrace: need -app, -worker, or a preset")
		fs.Usage()
		os.Exit(2)
	}

	m, err := machine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	inst := app.Setup(m)
	res, err := m.Run(inst.Thread, 0)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	events := sink.Events()
	switch mode {
	case "trace":
		if err := trace.WritePerfetto(w, events, cfg.Nodes); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "swextrace: %s on %d nodes, %s: %d cycles, %d events (%d collected)\n",
			app.Name, cfg.Nodes, cfg.Spec.Name, res.Time, sink.Total(), len(events))
	case "profile":
		bw := bufio.NewWriter(w)
		recs := trace.Attribute(events)
		prof := trace.Summarize(recs)
		fmt.Fprintf(bw, "%s on %d nodes, %s (%s software): %d cycles, %d transactions\n\n",
			app.Name, cfg.Nodes, cfg.Spec.Name, cfg.Software, res.Time, len(recs))
		fmt.Fprintf(bw, "%s\n", prof.PathTable())
		fmt.Fprintf(bw, "%s\n", prof.WorkTable())
		if err := bw.Flush(); err != nil {
			log.Fatal(err)
		}
	}
}
