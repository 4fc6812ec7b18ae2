// Command swex regenerates the tables and figures of Chaiken & Agarwal,
// "Software-Extended Coherent Shared Memory: Performance and Cost"
// (ISCA 1994) on the package's cycle-level simulator.
//
// Usage:
//
//	swex [-quick] [-json] [-workers N] [-cache DIR] <experiment>... | all
//	swex -list [-quick] <experiment>... | all
//	swex -status -cache DIR
//	swex -cache DIR compact
//
// The experiments are the exhibits of the package registry
// (swex.Matrices): the paper's tables and figures, the scaling and
// extrapolation studies, the memory-tier study, and the ablations. Run
// swex with no arguments to print them with their captions.
//
// -quick runs reduced problem sizes (seconds instead of minutes) that
// preserve every qualitative shape. -json prints each experiment's
// assembled data instead of its rendered table.
//
// All experiments execute through one shared sweep runner (see
// internal/sweep): -workers bounds the worker pool (default: one per
// core), and -cache persists finished simulation points to a
// content-addressed result cache so re-runs and overlapping experiments
// skip completed work. With -cache, a killed run resumes from the cache's
// manifest journal, re-running an unchanged experiment executes zero
// simulations, and several processes may share one cache directory.
// Output is byte-identical at any worker count.
//
// Standard output is a pure function of the selected experiments. Each
// experiment's job count, executed simulations, cache hits and host time
// go to standard error, so two runs' stdout compare equal.
//
// -list prints each job's content hash and description without running
// anything (the matrix as the cache will see it). -status summarizes a
// cache directory's manifest journal — distinct completed and failed
// jobs, with the failures' journaled errors (stacks included) — and exits
// non-zero when the journal records failures, so scripts can gate on a
// clean run. The compact subcommand rewrites the manifest journal down to
// one record per live entry (the journal is append-only, so re-journaled
// jobs accumulate superseded lines).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"swex"
	"swex/internal/sweep"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced problem sizes")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = one per core)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty = in-memory only)")
	salt := flag.String("salt", "", "extra key material mixed into every job hash")
	cycleBudget := flag.Int64("cycle-budget", 0, "per-job simulated-cycle limit (0 = unbounded)")
	list := flag.Bool("list", false, "print the job matrix (hash and description) without running")
	status := flag.Bool("status", false, "summarize the cache manifest journal and exit (non-zero if failures are journaled)")
	flag.Usage = usage
	flag.Parse()

	if *status {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "swex: -status needs -cache DIR")
			os.Exit(2)
		}
		failed, err := printStatus(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swex: %v\n", err)
			os.Exit(1)
		}
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	if flag.NArg() == 1 && flag.Arg(0) == "compact" {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "swex: compact needs -cache DIR")
			os.Exit(2)
		}
		if err := compact(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "swex: %v\n", err)
			os.Exit(1)
		}
		return
	}

	selected, err := swex.SelectMatrices(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	opts := swex.Options{Quick: *quick}

	if *list {
		for _, m := range selected {
			fmt.Printf("# %s: %s\n", m.Name, m.Caption)
			for _, job := range m.Jobs(opts) {
				key, err := job.Key(*salt)
				if err != nil {
					fmt.Fprintf(os.Stderr, "swex: %s: %v\n", m.Name, err)
					os.Exit(1)
				}
				fmt.Printf("%s  %s\n", sweep.HashKey(key)[:16], job)
			}
		}
		return
	}

	sweeper, err := swex.NewSweeper(swex.SweeperConfig{
		Workers:     *workers,
		CacheDir:    *cacheDir,
		Salt:        *salt,
		CycleBudget: swex.Cycle(*cycleBudget),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n", err)
		os.Exit(1)
	}
	defer sweeper.Close()

	opts.Sweep = sweeper
	results := map[string]any{}
	for _, m := range selected {
		start := time.Now()
		before := sweeper.TotalExecs()
		out, data, err := m.Render(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swex: %s: %v\n", m.Name, err)
			os.Exit(1)
		}
		executed := sweeper.TotalExecs() - before
		jobs := len(m.Jobs(opts))
		fmt.Fprintf(os.Stderr, "swex: %s: %d job(s), %d executed, %d from cache, %.1fs on %d worker(s)\n",
			m.Name, jobs, executed, jobs-executed, time.Since(start).Seconds(), sweeper.Workers())
		if *asJSON {
			results[m.Name] = data
			continue
		}
		fmt.Printf("== %s: %s\n\n%s\n", m.Name, m.Caption, out)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "swex: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "swex: %d simulation(s) executed on %d worker(s)\n",
		sweeper.TotalExecs(), sweeper.Workers())
}

// printStatus summarizes a cache directory's manifest journal and returns
// the number of journaled failures.
func printStatus(dir string) (failed int, err error) {
	c, err := sweep.OpenCache(dir)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	st := c.Status()
	fmt.Printf("cache %s: %d job(s) done, %d failed\n", dir, st.Done, st.Failed)
	for _, f := range st.Failures {
		fmt.Printf("  FAILED %s\n    %s\n", f.Key, f.Err)
	}
	return st.Failed, nil
}

// compact rewrites a cache directory's manifest journal down to its live
// records.
func compact(dir string) error {
	c, err := sweep.OpenCache(dir)
	if err != nil {
		return err
	}
	defer c.Close()
	records, err := c.Compact()
	if err != nil {
		return err
	}
	fmt.Printf("cache %s: manifest compacted to %d record(s)\n", dir, records)
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: swex [flags] <experiment>... | all
       swex -list [-quick] <experiment>... | all
       swex -status -cache DIR
       swex -cache DIR compact

experiments:
`)
	for _, m := range swex.Matrices() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", m.Name, m.Caption)
	}
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}
