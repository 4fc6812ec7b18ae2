// Command swexsweep orchestrates the paper's experiment matrices as
// parallel simulation sweeps with a content-addressed result cache and
// crash-safe resume (see internal/sweep).
//
// Usage:
//
//	swexsweep [-quick] [-workers N] [-cache DIR] <matrix>... | all
//	swexsweep -coordinator URL [-quick] <matrix>... | all
//	swexsweep -list [-quick] <matrix>... | all
//	swexsweep -status -cache DIR
//	swexsweep -cache DIR compact
//
// The matrices are the exhibits of the package registry (swex.Matrices):
// the paper's tables and figures, the scaling, extrapolation, and
// memory-tier studies, and the ablations. Run swexsweep with no arguments
// to print them with their captions.
//
// The default mode runs the named matrices through one shared worker pool,
// prints each exhibit, and reports how many simulations actually executed
// versus how many were served from the cache. With -cache, finished jobs
// persist: a killed sweep resumes from its manifest journal by skipping
// completed work, and re-running an unchanged matrix executes zero
// simulations. Sweep output is byte-identical to a serial run at any
// worker count.
//
// With -coordinator, jobs execute on a swexd coordinator's workers (see
// cmd/swexd) instead of in process; the rendered exhibits are
// byte-identical either way, and the coordinator's shared cache dedups
// across every client that ever submitted the same jobs.
//
// -list prints each job's content hash and description without running
// anything (the matrix as the cache will see it). -status summarizes a
// cache directory's manifest journal — distinct completed and failed
// jobs, with the failures' journaled errors (stacks included) — and
// exits non-zero when the journal records failures, so scripts can gate
// on a clean sweep. The compact subcommand rewrites the manifest journal
// down to one record per live entry (the journal is append-only during
// sweeps, so retried and re-journaled jobs accumulate superseded lines).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"swex"
	"swex/internal/sweep"
	"swex/internal/swexd"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced problem sizes")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = one per core)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty = in-memory only)")
	salt := flag.String("salt", "", "extra key material mixed into every job hash")
	retries := flag.Int("retries", 0, "re-execution attempts for failed jobs")
	cycleBudget := flag.Int64("cycle-budget", 0, "per-job simulated-cycle limit (0 = unbounded)")
	wallBudget := flag.Duration("wall-budget", 0, "per-job wall-clock failure threshold (0 = off; makes failures machine-speed dependent)")
	coordinator := flag.String("coordinator", "", "swexd coordinator base URL (e.g. http://host:7009); jobs execute on its workers")
	list := flag.Bool("list", false, "print the job matrix (hash and description) without running")
	status := flag.Bool("status", false, "summarize the cache manifest journal and exit (non-zero if failures are journaled)")
	flag.Usage = usage
	flag.Parse()

	if *status {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "swexsweep: -status needs -cache DIR")
			os.Exit(2)
		}
		failed, err := printStatus(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swexsweep: %v\n", err)
			os.Exit(1)
		}
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	if len(flag.Args()) == 1 && flag.Args()[0] == "compact" {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "swexsweep: compact needs -cache DIR")
			os.Exit(2)
		}
		if err := compact(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "swexsweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	selected, err := swex.SelectMatrices(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "swexsweep: %v\n\n", err)
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
					fmt.Fprintf(os.Stderr, "swexsweep: %s: %v\n", m.Name, err)
					os.Exit(1)
				}
				fmt.Printf("%s  %s\n", sweep.HashKey(key)[:16], job)
			}
		}
		return
	}

	if *coordinator != "" {
		runRemote(*coordinator, *salt, selected, opts)
		return
	}

	sweeper, err := swex.NewSweeper(swex.SweeperConfig{
		Workers:     *workers,
		CacheDir:    *cacheDir,
		Salt:        *salt,
		Retries:     *retries,
		CycleBudget: swex.Cycle(*cycleBudget),
		WallBudget:  *wallBudget,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swexsweep: %v\n", err)
		os.Exit(1)
	}
	defer sweeper.Close()
	opts.Sweep = sweeper

	for _, m := range selected {
		start := time.Now()
		before := sweeper.TotalExecs()
		out, _, err := m.Render(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swexsweep: %s: %v\n", m.Name, err)
			os.Exit(1)
		}
		executed := sweeper.TotalExecs() - before
		jobs := len(m.Jobs(opts))
		fmt.Printf("== %s: %s\n\n%s\n", m.Name, m.Caption, out)
		fmt.Fprintf(os.Stderr, "swexsweep: %s: %d job(s), %d executed, %d from cache, %.1fs on %d worker(s)\n",
			m.Name, jobs, executed, jobs-executed, time.Since(start).Seconds(), sweeper.Workers())
	}
}

// runRemote renders the selected matrices through a swexd coordinator.
// Execution counts come from the coordinator's counters, so "executed"
// reflects actual simulations anywhere in the cluster and "from cache"
// covers hits against the coordinator's shared store.
func runRemote(base, salt string, selected []swex.Matrix, opts swex.Options) {
	ctx := context.Background()
	client := &swexd.Client{Base: base, Salt: salt}
	opts.Sweep = client
	for _, m := range selected {
		start := time.Now()
		before := remoteExecs(ctx, client)
		out, _, err := m.Render(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swexsweep: %s: %v\n", m.Name, err)
			os.Exit(1)
		}
		executed := remoteExecs(ctx, client) - before
		jobs := int64(len(m.Jobs(opts)))
		fmt.Printf("== %s: %s\n\n%s\n", m.Name, m.Caption, out)
		fmt.Fprintf(os.Stderr, "swexsweep: %s: %d job(s), %d executed, %d from cache, %.1fs via %s\n",
			m.Name, jobs, executed, jobs-executed, time.Since(start).Seconds(), base)
	}
}

// remoteExecs samples the coordinator's execution counter (0 when
// unreachable; the subsequent submit will surface the real error).
func remoteExecs(ctx context.Context, client *swexd.Client) int64 {
	vars, err := client.Vars(ctx)
	if err != nil {
		return 0
	}
	return vars["executions"]
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
	fmt.Fprintf(os.Stderr, `usage: swexsweep [flags] <matrix>... | all
       swexsweep -coordinator URL [-quick] <matrix>... | all
       swexsweep -list [-quick] <matrix>... | all
       swexsweep -status -cache DIR
       swexsweep -cache DIR compact

matrices:
`)
	for _, m := range swex.Matrices() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", m.Name, m.Caption)
	}
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}
