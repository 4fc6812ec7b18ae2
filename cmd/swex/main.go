// Command swex regenerates the tables and figures of Chaiken & Agarwal,
// "Software-Extended Coherent Shared Memory: Performance and Cost"
// (ISCA 1994) on the package's cycle-level simulator.
//
// Usage:
//
//	swex [-quick] <experiment> [<experiment>...]
//	swex [-quick] all
//
// Experiments: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 scaling extrapolation tiers
// Ablations:   ablate-localbit ablate-software ablate-broadcast ablate-batch
//
// -quick runs reduced problem sizes (seconds instead of minutes) that
// preserve every qualitative shape.
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
	"sort"
	"time"

	"swex"
)

type experiment struct {
	name    string
	caption string
	// run returns the rendered text and the raw data (for -json).
	run func(swex.Options) (string, any, error)
}

func experiments() []experiment {
	return []experiment{
		{"table1", "average software-extension latencies (C vs assembly)", func(o swex.Options) (string, any, error) {
			d, err := swex.Table1(o)
			if err != nil {
				return "", nil, err
			}
			return d.Table().String(), d, nil
		}},
		{"table2", "median handler cycle breakdown", func(o swex.Options) (string, any, error) {
			d, err := swex.Table2(o)
			if err != nil {
				return "", nil, err
			}
			return d.String(), d, nil
		}},
		{"table3", "application characteristics and sequential times", func(o swex.Options) (string, any, error) {
			rows, err := swex.Table3(o)
			if err != nil {
				return "", nil, err
			}
			return swex.Table3Table(rows).String(), rows, nil
		}},
		{"fig2", "WORKER protocol performance vs worker-set size", func(o swex.Options) (string, any, error) {
			d, err := swex.Figure2(o)
			if err != nil {
				return "", nil, err
			}
			return d.Figure().String(), d, nil
		}},
		{"fig3", "TSP cache-configuration study (instruction/data thrashing)", func(o swex.Options) (string, any, error) {
			d, err := swex.Figure3(o)
			if err != nil {
				return "", nil, err
			}
			return d.Table().String(), d, nil
		}},
		{"fig4", "application speedups across the protocol spectrum", func(o swex.Options) (string, any, error) {
			d, err := swex.Figure4(o)
			if err != nil {
				return "", nil, err
			}
			return d.Table().String(), d, nil
		}},
		{"fig5", "TSP on 256 nodes", func(o swex.Options) (string, any, error) {
			d, err := swex.Figure5(o)
			if err != nil {
				return "", nil, err
			}
			return d.Table().String(), d, nil
		}},
		{"fig6", "EVOLVE worker-set histogram", func(o swex.Options) (string, any, error) {
			d, err := swex.Figure6(o)
			if err != nil {
				return "", nil, err
			}
			return d.Table().String(), d, nil
		}},
		{"scaling", "TSP speedup vs machine size across the spectrum", func(o swex.Options) (string, any, error) {
			d, err := swex.ScalingStudy(o)
			if err != nil {
				return "", nil, err
			}
			return d.Figure().String(), d, nil
		}},
		{"extrapolation", "TSP at 256/512/1024 nodes, beyond Figure 5", func(o swex.Options) (string, any, error) {
			d, err := swex.Extrapolation(o)
			if err != nil {
				return "", nil, err
			}
			return d.Table().String(), d, nil
		}},
		{"tiers", "WORKER across memory-system families (flat, disaggregated, NVM, directoryless)", func(o swex.Options) (string, any, error) {
			d, err := swex.Tiers(o)
			if err != nil {
				return "", nil, err
			}
			return d.Table().String(), d, nil
		}},
		{"ablate-localbit", "one-bit local pointer on/off", ablation("ablation: local bit disabled", swex.AblateLocalBit)},
		{"ablate-software", "flexible C vs hand-tuned assembly handlers", ablation("ablation: hand-tuned assembly handlers", swex.AblateSoftware)},
		{"ablate-broadcast", "DirnH1SNB,LACK vs Dir1H1SB,LACK", ablation("ablation: broadcast instead of software directory", swex.AblateBroadcast)},
		{"ablate-batch", "read-burst batching enhancement", ablation("ablation: read-burst batching enabled", swex.AblateBatchReads)},
		{"ablate-parinv", "sequential vs parallel invalidation transmission", ablation("ablation: parallel invalidation transmission", swex.AblateParallelInv)},
		{"ablate-dataspec", "block-by-block protocol reconfiguration", ablation("ablation: EVOLVE fitness table promoted to full-map", swex.AblateDataSpecific)},
		{"ablate-migratory", "migratory-data adaptation (dynamic detection)", ablation("ablation: migratory-data read-for-ownership", swex.AblateMigratory)},
		{"ablate-assoc", "victim cache vs 2-way set-associative cache", ablation("ablation: associativity remedies for I/D thrashing", swex.AblateAssociativity)},
		{"ablate-cico", "Check-In/Check-Out program annotations", ablation("ablation: CICO check-in after reads", swex.AblateCICO)},
		{"ablate-mthread", "block multithreading (latency tolerance)", ablation("ablation: 4 hardware contexts per node", swex.AblateMultithreading)},
	}
}

func ablation(title string, fn func(swex.Options) ([]swex.AblationRow, error)) func(swex.Options) (string, any, error) {
	return func(o swex.Options) (string, any, error) {
		rows, err := fn(o)
		if err != nil {
			return "", nil, err
		}
		return swex.AblationTable(title, rows).String(), rows, nil
	}
}

func main() {
	quick := flag.Bool("quick", false, "run reduced problem sizes")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = one per core)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty = in-memory only)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	sweeper, err := swex.NewSweeper(swex.SweeperConfig{Workers: *workers, CacheDir: *cacheDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swex: %v\n", err)
		os.Exit(1)
	}
	defer sweeper.Close()

	all := experiments()
	byName := map[string]experiment{}
	for _, e := range all {
		byName[e.name] = e
	}

	var selected []experiment
	if len(args) == 1 && args[0] == "all" {
		selected = all
	} else {
		for _, a := range args {
			e, ok := byName[a]
			if !ok {
				fmt.Fprintf(os.Stderr, "swex: unknown experiment %q\n\n", a)
				usage()
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := swex.Options{Quick: *quick, Sweep: sweeper}
	results := map[string]any{}
	for _, e := range selected {
		start := time.Now()
		out, data, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swex: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "swex: %s done (%.1fs)\n", e.name, time.Since(start).Seconds())
		if *asJSON {
			results[e.name] = data
			continue
		}
		fmt.Printf("== %s: %s\n\n%s\n", e.name, e.caption, out)
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
	fmt.Fprintf(os.Stderr, "usage: swex [-quick] [-workers N] [-cache DIR] <experiment>... | all\n\nexperiments:\n")
	var names []string
	byName := map[string]string{}
	for _, e := range experiments() {
		names = append(names, e.name)
		byName[e.name] = e.caption
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", n, byName[n])
	}
}
