// Command swex regenerates the tables and figures of Chaiken & Agarwal,
// "Software-Extended Coherent Shared Memory: Performance and Cost"
// (ISCA 1994) on the package's cycle-level simulator.
//
// Usage:
//
//	swex [-quick] [-json] <experiment> [<experiment>...]
//	swex [-quick] [-json] all
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
// skip completed work. Output is byte-identical at any worker count.
//
// Standard output is a pure function of the selected experiments: each
// experiment's host time goes to standard error, so two runs' stdout
// compare equal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"swex"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced problem sizes")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = one per core)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty = in-memory only)")
	flag.Usage = usage
	flag.Parse()
	selected, err := swex.SelectMatrices(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n\n", err)
		usage()
		os.Exit(2)
	}

	sweeper, err := swex.NewSweeper(swex.SweeperConfig{Workers: *workers, CacheDir: *cacheDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n", err)
		os.Exit(1)
	}
	defer sweeper.Close()

	opts := swex.Options{Quick: *quick, Sweep: sweeper}
	results := map[string]any{}
	for _, m := range selected {
		start := time.Now()
		out, data, err := m.Render(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swex: %s: %v\n", m.Name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "swex: %s done (%.1fs)\n", m.Name, time.Since(start).Seconds())
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

func usage() {
	fmt.Fprintf(os.Stderr, "usage: swex [-quick] [-json] [-workers N] [-cache DIR] <experiment>... | all\n\nexperiments:\n")
	for _, m := range swex.Matrices() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", m.Name, m.Caption)
	}
}
