// Command swexfuzz fuzzes the simulated machine's memory model against a
// sequential-consistency oracle (see internal/litmus). It generates small
// multi-threaded litmus programs — a hand-written corpus (store buffering,
// message passing, IRIW, coherence, read-modify-write) plus seeded random
// programs — runs each across several points of the protocol spectrum,
// and judges every run's logged observations with an exact SC decision
// procedure. Any outcome no sequentially consistent interleaving explains
// is reported with a minimal constraint-cycle witness and the exit status
// is 1.
//
// Usage:
//
//	swexfuzz [-seed N] [-programs N] [-nodes N] [-specs full,h1ack,dir1sw]
//	         [-threads N] [-vars N] [-ops N] [-overrides] [-limit N]
//	         [-checker auto|exhaustive|constraints]
//	         [-cache DIR] [-workers N]
//	swexfuzz -weakened [-nodes N]
//
// Runs are routed through the sweep layer, so -cache makes campaigns
// resumable (a re-run with a warm cache re-executes nothing and prints
// byte-identical output). Everything on stdout is a deterministic function
// of the flags; timings and cache statistics go to stderr.
//
// -weakened runs the negative control instead: a machine configured to
// silently drop an invalidation (machine.Config.LoseInv) executes a
// message-passing program, and swexfuzz exits 0 only if the oracle flags
// the resulting stale read with a constraint-cycle witness. It proves the
// pipeline can actually see a coherence bug, so a fuzzing campaign's
// "zero violations" means something.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "swexfuzz: %v\n", err)
		os.Exit(1)
	}
}

// checkerFn is one of the oracle's decision procedures.
type checkerFn func(litmus.Program, [][]uint64) (litmus.Verdict, error)

// entry is one program of the campaign with its display name.
type entry struct {
	name string
	prog litmus.Program
}

// run executes the whole campaign and returns an error for flag misuse,
// simulation failures, or SC violations (so main exits nonzero).
func run(args []string) error {
	fs := flag.NewFlagSet("swexfuzz", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "random program generator seed")
	programs := fs.Int("programs", 100, "number of generated programs (the corpus is always included)")
	nodes := fs.Int("nodes", 4, "machine size in nodes")
	threads := fs.Int("threads", 0, "threads per generated program (0 = generator default)")
	vars := fs.Int("vars", 0, "shared variables per generated program (0 = generator default)")
	ops := fs.Int("ops", 0, "operations per generated thread (0 = generator default)")
	specs := fs.String("specs", "full,h1ack,dir1sw", "comma-separated protocol spectrum aliases to sweep")
	overrides := fs.Bool("overrides", true, "let generated programs pin variables to other spectrum points")
	limit := fs.Int64("limit", 50_000_000, "per-run simulated-cycle budget (0 = unbounded)")
	checker := fs.String("checker", "auto", "decision procedure: auto, exhaustive, or constraints")
	cacheDir := fs.String("cache", "", "content-addressed result cache directory (empty = no cache)")
	workers := fs.Int("workers", 0, "concurrent local simulations (0 = GOMAXPROCS)")
	weakened := fs.Bool("weakened", false, "run the lost-invalidation negative control and require the oracle to flag it")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *nodes < 2 {
		return fmt.Errorf("-nodes %d: need at least 2 nodes to exercise coherence", *nodes)
	}
	if *programs < 0 {
		return fmt.Errorf("-programs %d: must be non-negative", *programs)
	}
	judge, err := judgeFor(*checker)
	if err != nil {
		return err
	}
	if *weakened {
		return runWeakened(*nodes, sim.Cycle(*limit))
	}

	aliases, specList, err := resolveSpecs(*specs)
	if err != nil {
		return err
	}
	entries, dropped, err := buildPrograms(*seed, *programs, *nodes, *threads, *vars, *ops, *overrides, aliases, specList)
	if err != nil {
		return err
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "swexfuzz: %d corpus program(s) need more than %d nodes, skipped\n", dropped, *nodes)
	}

	// The job matrix: spec-major, program-minor, so the summary's per-spec
	// counters follow submission order. Programs whose per-variable
	// overrides are not expressible by a base machine's protocol software
	// are skipped on that base (proto.HomeCtl.Configure would reject the
	// configuration).
	var jobs []sweep.Job
	type meta struct{ spec, prog int }
	var metas []meta
	skipped := make([]int, len(aliases))
	for s, spec := range specList {
		for p, e := range entries {
			if !litmus.CompatibleBase(e.prog, spec) {
				skipped[s]++
				continue
			}
			job := sweep.LitmusJob(e.prog, machine.DefaultConfig(*nodes, spec))
			job.Limit = sim.Cycle(*limit)
			jobs = append(jobs, job)
			metas = append(metas, meta{spec: s, prog: p})
		}
	}

	start := time.Now()
	results, execs, cached, err := execute(jobs, *cacheDir, *workers, sim.Cycle(*limit))
	if err != nil {
		return err
	}

	// Judge every run. Violations print in submission order with the
	// constraint-cycle witness; everything on stdout is deterministic.
	corpus := len(entries) - *programs
	fmt.Printf("swexfuzz: seed %d, %d corpus + %d generated program(s), %d node(s)\n",
		*seed, corpus, *programs, *nodes)
	runs := make([]int, len(aliases))
	violations := make([]int, len(aliases))
	total, bad := 0, 0
	for i, res := range results {
		m := metas[i]
		e := entries[m.prog]
		obs, err := litmus.ThreadObs(e.prog, res.Obs, jobs[i].Config.ThreadsPerNode)
		if err != nil {
			return fmt.Errorf("%s under %s: %v", e.name, aliases[m.spec], err)
		}
		v, err := judge(e.prog, obs)
		if err != nil {
			return fmt.Errorf("%s under %s: %v", e.name, aliases[m.spec], err)
		}
		runs[m.spec]++
		total++
		if !v.OK {
			violations[m.spec]++
			bad++
			witness := v.Witness
			if witness == "" {
				if cv, err := litmus.CheckConstraints(e.prog, obs); err == nil {
					witness = cv.Witness
				}
			}
			fmt.Printf("VIOLATION: %s under %s\n  program: %s\n  observed: %v\n  witness: %s\n",
				e.name, aliases[m.spec], e.prog, obs, witness)
		}
	}
	for s, alias := range aliases {
		line := fmt.Sprintf("spec %s: %d run(s), %d violation(s)", alias, runs[s], violations[s])
		if skipped[s] > 0 {
			line += fmt.Sprintf(", %d skipped (overrides not expressible on this base)", skipped[s])
		}
		fmt.Println(line)
	}
	fmt.Printf("total: %d run(s), %d violation(s)\n", total, bad)

	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "swexfuzz: %d simulation(s), %d cache hit(s), %.1fs (%.1f runs/s)\n",
		execs, cached, elapsed.Seconds(), float64(total)/elapsed.Seconds())
	if bad > 0 {
		return fmt.Errorf("%d sequential-consistency violation(s)", bad)
	}
	return nil
}

// judgeFor maps the -checker flag to a decision procedure.
func judgeFor(name string) (checkerFn, error) {
	switch name {
	case "auto":
		return litmus.CheckSC, nil
	case "exhaustive":
		return litmus.CheckExhaustive, nil
	case "constraints":
		return litmus.CheckConstraints, nil
	}
	return nil, fmt.Errorf("-checker %q: want auto, exhaustive, or constraints", name)
}

// resolveSpecs parses the -specs list into aliases and their specs.
func resolveSpecs(list string) ([]string, []proto.Spec, error) {
	var aliases []string
	var specs []proto.Spec
	for _, alias := range strings.Split(list, ",") {
		alias = strings.TrimSpace(alias)
		if alias == "" {
			continue
		}
		spec, err := litmus.SpecByAlias(alias)
		if err != nil {
			return nil, nil, err
		}
		aliases = append(aliases, alias)
		specs = append(specs, spec)
	}
	if len(aliases) == 0 {
		return nil, nil, fmt.Errorf("-specs %q names no spectrum points", list)
	}
	return aliases, specs, nil
}

// buildPrograms assembles the campaign's program list: the corpus tests
// that fit the machine, then count seeded random ones. Generated
// per-variable overrides draw from the software-capable subset of the
// swept aliases, so every override has at least one base that can run it.
func buildPrograms(seed uint64, count, nodes, threads, vars, ops int, overrides bool, aliases []string, specs []proto.Spec) ([]entry, int, error) {
	if threads > nodes {
		return nil, 0, fmt.Errorf("-threads %d: generated programs run one thread per node, machine has %d", threads, nodes)
	}
	// The override pool excludes software-only specs: an h0 override is
	// expressible only on an h0 base, where in turn no other software
	// override is, so admitting it would generate programs no swept base
	// can run.
	var pool []string
	if overrides {
		for i, spec := range specs {
			if spec.UsesSoftware() && !spec.SoftwareOnly {
				pool = append(pool, aliases[i])
			}
		}
	}
	var entries []entry
	dropped := 0
	for _, tc := range litmus.Corpus() {
		if len(tc.Prog.Threads) > nodes {
			dropped++
			continue
		}
		entries = append(entries, entry{name: tc.Name, prog: tc.Prog})
	}
	r := sim.NewRand(seed)
	cfg := litmus.GenConfig{Threads: threads, Vars: vars, Ops: ops, SpecAliases: pool}
	for i := 0; i < count; i++ {
		p := litmus.Generate(r, cfg)
		if len(p.Threads) > nodes {
			return nil, 0, fmt.Errorf("generated program needs %d nodes, machine has %d (raise -nodes or lower -threads)", len(p.Threads), nodes)
		}
		entries = append(entries, entry{name: fmt.Sprintf("gen%04d", i), prog: p})
	}
	return entries, dropped, nil
}

// execute runs the matrix and returns results in submission order plus
// the execution and cache-hit counters.
func execute(jobs []sweep.Job, cacheDir string, workers int, limit sim.Cycle) ([]sweep.Result, int, int, error) {
	runner, err := sweep.NewRunner(sweep.Config{Workers: workers, CacheDir: cacheDir, CycleBudget: limit})
	if err != nil {
		return nil, 0, 0, err
	}
	defer runner.Close()
	outcomes := runner.Sweep(context.Background(), jobs)
	results := make([]sweep.Result, len(outcomes))
	cached := 0
	for i, out := range outcomes {
		if out.Err != nil {
			return nil, 0, 0, fmt.Errorf("%s: %v", out.Job, out.Err)
		}
		results[i] = out.Result
		if out.Cached {
			cached++
		}
	}
	return results, runner.TotalExecs(), cached, nil
}

// runWeakened executes the negative control and errors unless the oracle
// flags the lost-invalidation outcome with a constraint-cycle witness.
func runWeakened(nodes int, limit sim.Cycle) error {
	p, cfg := litmus.WeakenedFixture(nodes)
	job := sweep.LitmusJob(p, cfg)
	job.Limit = limit
	res, err := sweep.Execute(job, 0)
	if err != nil {
		return fmt.Errorf("weakened fixture: %v", err)
	}
	obs, err := litmus.ThreadObs(p, res.Obs, cfg.ThreadsPerNode)
	if err != nil {
		return fmt.Errorf("weakened fixture: %v", err)
	}
	v, err := litmus.CheckConstraints(p, obs)
	if err != nil {
		return fmt.Errorf("weakened fixture: %v", err)
	}
	if v.OK {
		return fmt.Errorf("weakened fixture NOT flagged: the oracle judged the lost-invalidation outcome %v sequentially consistent; the pipeline cannot see coherence bugs", obs)
	}
	fmt.Printf("weakened fixture flagged as expected\n  program: %s\n  observed: %v\n  witness: %s\n", p, obs, v.Witness)
	return nil
}
