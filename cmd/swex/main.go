// Command swex regenerates the tables and figures of Chaiken & Agarwal,
// "Software-Extended Coherent Shared Memory: Performance and Cost"
// (ISCA 1994) on the package's cycle-level simulator.
//
// Usage:
//
//	swex [-quick] [-json] [-workers N] [-cache DIR] [-cycle-budget N]
//	     [-cpuprofile FILE] [-memprofile FILE] <experiment>... | all
//	swex -list [-quick] <experiment>... | all
//	swex -status -cache DIR
//
// The experiments are the exhibits of the package registry
// (swex.Matrices): the paper's tables and figures, the scaling and
// extrapolation studies, and the ablations. Run swex with no arguments to
// print them with their captions.
//
// -quick runs reduced problem sizes (seconds instead of minutes) that
// preserve every qualitative shape. -json prints each experiment's
// assembled data instead of its rendered table. -cycle-budget N fails a
// job that runs past N simulated cycles with a named error
// (machine.ErrIncomplete); the default, 396,101,850, is ten times the
// longest full-mode job, and 0 lifts the limit.
//
// The selected experiments' jobs go to one sweep runner (see
// internal/sweep) as one submission, so a point they share runs once.
// -workers bounds the worker pool (default: one per core), and -cache
// persists finished simulation points to a content-addressed result cache
// so re-runs skip completed work. With -cache, a killed run resumes from
// the results already in the directory, re-running an unchanged
// experiment executes zero simulations, and several processes may share
// one cache directory. Output is byte-identical at any worker count.
//
// Standard output is a pure function of the selected experiments (empty
// if a job fails). Standard error gets "NAME: N job(s), X executed, Y
// from cache" per experiment, counting a shared point under the first
// experiment listing it, then the run's total and host time.
//
// -cpuprofile and -memprofile write a CPU profile of the run and a heap
// profile taken at its end, in runtime/pprof format, to the named files
// (for `go tool pprof`); they change nothing printed, and a file that
// cannot be created exits 2 before anything runs.
//
// -list prints each job's content hash and description without running
// anything (the matrix as the cache will see it). -status summarizes a
// cache directory — the completed jobs it would serve and the failed
// jobs with their recorded errors (stacks included) — and exits non-zero
// when it records failures, so scripts can gate on a clean run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"swex"
	"swex/cmd/internal/hostprof"
	"swex/internal/sweep"
)

// defaultCycleBudget is -cycle-budget's default, derived above its flag.
const defaultCycleBudget = 396_101_850

var (
	errNegative = errors.New("must be non-negative")
	errNoCache  = errors.New("no such cache directory")
)

func main() { os.Exit(run()) }

// run is the command; it returns the exit status, so deferred profile
// writes happen before the process exits.
func run() int {
	quick := flag.Bool("quick", false, "run reduced problem sizes")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = one per core)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty = in-memory only)")
	salt := flag.String("salt", "", "extra key material mixed into every job hash")
	// The default budget is 10 times the longest run of any full-mode
	// job, TSP on one node at 39,610,185 cycles, measured once from a
	// `swex all` cache directory: no exhibit job comes near it, and a
	// machine that livelocks fails by name instead of hanging the sweep.
	cycleBudget := flag.Int64("cycle-budget", defaultCycleBudget, "per-job simulated-cycle limit (0 = unbounded)")
	list := flag.Bool("list", false, "print the job matrix (hash and description) without running")
	status := flag.Bool("status", false, "summarize the cache directory and exit (non-zero if it records failures)")
	profiles := hostprof.Register(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	// swex.Cycle is unsigned: a negative budget would wrap to about 2^64.
	for _, c := range []struct {
		flag string
		v    int64
	}{{"cycle-budget", *cycleBudget}, {"workers", int64(*workers)}} {
		if c.v < 0 {
			fmt.Fprintf(os.Stderr, "swex: -%s %d: %v\n\n", c.flag, c.v, errNegative)
			usage()
			return 2
		}
	}

	if *status {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "swex: -status needs -cache DIR")
			return 2
		}
		if !cacheExists(*cacheDir) {
			return 2
		}
		failed, err := printStatus(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swex: %v\n", err)
			return 1
		}
		if failed > 0 {
			return 1
		}
		return 0
	}

	selected, err := swex.SelectMatrices(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n\n", err)
		usage()
		return 2
	}
	opts := swex.Options{Quick: *quick}

	if *list {
		for _, m := range selected {
			fmt.Printf("# %s: %s\n", m.Name, m.Caption)
			for _, job := range m.Jobs(opts) {
				key, err := job.Key(*salt)
				if err != nil {
					fmt.Fprintf(os.Stderr, "swex: %s: %v\n", m.Name, err)
					return 1
				}
				fmt.Printf("%s  %s\n", sweep.HashKey(key)[:16], job)
			}
		}
		return 0
	}

	stopProfiles, err := profiles.Start("swex")
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n", err)
		return 2
	}
	defer stopProfiles()

	sweeper, err := swex.NewSweeper(swex.SweeperConfig{
		Workers:     *workers,
		CacheDir:    *cacheDir,
		Salt:        *salt,
		CycleBudget: swex.Cycle(*cycleBudget),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n", err)
		return 1
	}
	defer sweeper.Close()

	opts.Sweep = sweeper
	start := time.Now()
	exhibits, err := swex.Render(opts, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n", err)
		return 1
	}
	results := map[string]any{}
	for _, e := range exhibits {
		fmt.Fprintf(os.Stderr, "swex: %s: %d job(s), %d executed, %d from cache\n",
			e.Name, e.Jobs, e.Executed, e.Jobs-e.Executed)
		if *asJSON {
			results[e.Name] = e.Data
			continue
		}
		fmt.Printf("== %s: %s\n\n%s\n", e.Name, e.Caption, e.Text)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "swex: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "swex: %d simulation(s) executed on %d worker(s) in %.1fs\n",
		sweeper.TotalExecs(), sweeper.Workers(), time.Since(start).Seconds())
	return 0
}

// cacheExists reports whether dir is a directory, and says so on stderr
// when it is not. -status only reads an existing cache; opening one would
// create a mistyped directory and report it empty.
func cacheExists(dir string) bool {
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		fmt.Fprintf(os.Stderr, "swex: -cache %s: %v\n", dir, errNoCache)
		return false
	}
	return true
}

// printStatus summarizes a cache directory and returns the number of
// recorded failures.
func printStatus(dir string) (failed int, err error) {
	c, err := sweep.OpenCache(dir)
	if err != nil {
		return 0, err
	}
	st, err := c.Status()
	if err != nil {
		return 0, err
	}
	fmt.Printf("cache %s: %d job(s) done, %d failed\n", dir, st.Done, st.Failed)
	for _, f := range st.Failures {
		fmt.Printf("  FAILED %s\n    %s\n", f.Key, f.Err)
	}
	return st.Failed, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: swex [flags] <experiment>... | all
       swex -list [-quick] <experiment>... | all
       swex -status -cache DIR

experiments:
`)
	for _, m := range swex.Matrices() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", m.Name, m.Caption)
	}
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}
