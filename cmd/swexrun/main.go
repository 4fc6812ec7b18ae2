// Command swexrun runs a single workload on a single machine configuration
// and reports everything the simulator observed: run time, per-node finish
// spread, traps, handler occupancy, message mix, cache behavior, and the
// worker-set histogram. It is the interactive counterpart of cmd/swex's
// batch experiments — the tool for exploring one configuration in depth.
//
// Examples:
//
//	swexrun -app WATER -nodes 64 -protocol h5 -victim 8
//	swexrun -worker 8 -iters 10 -nodes 16 -protocol h1ack
//	swexrun -app TSP -nodes 64 -protocol h0 -trace 40
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"swex"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proto"
)

func main() {
	var (
		appName   = flag.String("app", "", "application: TSP AQ SMGRID EVOLVE MP3D WATER")
		workerK   = flag.Int("worker", 0, "run WORKER with this worker-set size instead of -app")
		iters     = flag.Int("iters", 10, "WORKER iterations")
		nodes     = flag.Int("nodes", 16, "machine size")
		protoStr  = flag.String("protocol", "h5", "protocol alias: "+strings.Join(litmus.SpecAliases(), " "))
		victim    = flag.Int("victim", 0, "victim cache lines (0 = off)")
		ways      = flag.Int("ways", 0, "cache associativity (0/1 = direct-mapped)")
		threads   = flag.Int("threads", 1, "hardware contexts per node")
		pifetch   = flag.Bool("pifetch", false, "perfect instruction fetch")
		software  = flag.String("software", "c", "protocol software: c or asm")
		batch     = flag.Bool("batch", false, "read-burst batching enhancement")
		parinv    = flag.Bool("parinv", false, "parallel invalidation enhancement")
		migratory = flag.Bool("migratory", false, "migratory-data adaptation")
		traceN    = flag.Int("trace", 0, "dump the last N protocol events")
		profile   = flag.Int("profile", 0, "sample a timeline every N cycles")
		verify    = flag.Bool("verify", false, "run with the coherence invariant checker")
	)
	flag.Parse()

	spec, err := litmus.SpecByAlias(strings.ToLower(*protoStr))
	if err != nil {
		log.Fatalf("unknown protocol %q", *protoStr)
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
	if strings.ToLower(*software) == "asm" {
		cfg.Software = machine.TunedASM
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "swexrun:", err)
		os.Exit(2)
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
		fmt.Fprintln(os.Stderr, "swexrun: need -app or -worker")
		flag.Usage()
		os.Exit(2)
	}

	m, err := machine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var tracer *proto.RingTracer
	if *traceN > 0 {
		tracer = proto.NewRingTracer(*traceN)
		m.Fabric.Trace = tracer
	}
	if *verify {
		m.Fabric.EnableChecker()
	}

	inst := app.Setup(m)
	var res machine.Result
	var timeline *machine.Timeline
	if *profile > 0 {
		var err2 error
		res, timeline, err2 = m.RunProfiled(inst.Thread, 0, swex.Cycle(*profile))
		if err2 != nil {
			log.Fatal(err2)
		}
	} else {
		var err2 error
		res, err2 = m.Run(inst.Thread, 0)
		if err2 != nil {
			log.Fatal(err2)
		}
	}

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
	fmt.Printf("  watchdog fires    %d\n", m.Traps.TotalActivations())

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

	if timeline != nil {
		fmt.Printf("\ntimeline (every %d cycles): messages | traps\n", timeline.Interval)
		var peak uint64 = 1
		for _, v := range timeline.Messages {
			if v > peak {
				peak = v
			}
		}
		for i := range timeline.Messages {
			bar := int(timeline.Messages[i] * 40 / peak)
			fmt.Printf("%10d  %-40s %6d | %d\n", swex.Cycle(i+1)*timeline.Interval,
				strings.Repeat("#", bar), timeline.Messages[i], timeline.Traps[i])
		}
	}

	if tracer != nil {
		fmt.Printf("\nlast %d protocol events:\n%s", tracer.Len(), tracer.Dump())
	}
}
