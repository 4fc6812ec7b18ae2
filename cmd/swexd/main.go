// Command swexd runs the distributed sweep service (see internal/swexd):
// a coordinator that leases experiment jobs to workers over RPC and
// serves results from one shared content-addressed cache, plus the
// worker, submit, and status clients.
//
// Usage:
//
//	swexd serve  -addr :7009 [-cache DIR] [-lease 10s] [-retries N] [-cycle-budget N]
//	swexd worker -coordinator host:7009 [-name NAME] [-slots N] [-poll D]
//	swexd submit -coordinator http://host:7009 [-quick] [-salt S] [-quiet] <matrix>... | all
//	swexd status -coordinator http://host:7009 [-json] [sweep-id]
//
// The matrices are the exhibits of the package registry (swex.Matrices):
// the paper's tables and figures, the scaling, extrapolation, and
// memory-tier studies, and the ablations. Run swexd with no arguments to
// print them with their captions.
//
// serve hosts the coordinator: the HTTP/JSON front end (POST /sweeps,
// GET /sweeps/{id}, streaming NDJSON at /sweeps/{id}/events, /workers,
// /vars) and the workers' RPC endpoint share one listener. worker
// attaches an execution worker; run any number, anywhere the coordinator
// is reachable. submit renders the named exhibit matrices through the
// coordinator — output is byte-identical to a local swexsweep run.
// status with no argument lists sweeps, workers, and counters; with a
// sweep ID it prints that sweep's per-job state. -json switches either
// form to newline-delimited JSON (one record per sweep or per job).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"time"

	"swex"
	"swex/internal/sim"
	"swex/internal/swexd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "worker":
		err = worker(os.Args[2:])
	case "submit":
		err = submit(os.Args[2:])
	case "status":
		err = status(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "swexd: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "swexd: %v\n", err)
		os.Exit(1)
	}
}

// serve hosts the coordinator until interrupted.
func serve(args []string) error {
	fs := flag.NewFlagSet("swexd serve", flag.ExitOnError)
	addr := fs.String("addr", ":7009", "listen address")
	cacheDir := fs.String("cache", "", "shared content-addressed result cache directory (empty = in-memory only)")
	lease := fs.Duration("lease", 10*time.Second, "job lease term; a worker silent this long forfeits its job")
	retries := fs.Int("retries", 0, "worker-reported failures a job tolerates before it is marked failed")
	cycleBudget := fs.Int64("cycle-budget", 0, "default per-job simulated-cycle limit (0 = unbounded)")
	fs.Parse(args)

	coord, err := swexd.NewCoordinator(swexd.Config{
		CacheDir:    *cacheDir,
		LeaseTerm:   *lease,
		JobRetries:  *retries,
		CycleBudget: sim.Cycle(*cycleBudget),
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	srv := &http.Server{Addr: *addr, Handler: coord.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	fmt.Fprintf(os.Stderr, "swexd: coordinator listening on %s (cache %q, lease %v)\n", *addr, *cacheDir, *lease)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// worker attaches one execution worker to a coordinator until
// interrupted.
func worker(args []string) error {
	fs := flag.NewFlagSet("swexd worker", flag.ExitOnError)
	coordinator := fs.String("coordinator", "localhost:7009", "coordinator host:port")
	name := fs.String("name", "", "worker name for the /workers listing (default host:pid)")
	slots := fs.Int("slots", 0, "concurrent job executions (0 = one per core is NOT implied; 0 means 1)")
	poll := fs.Duration("poll", 0, "wait between empty lease replies (0 = coordinator-suggested)")
	fs.Parse(args)

	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := swexd.NewWorker(swexd.WorkerConfig{
		Coordinator: *coordinator,
		Name:        *name,
		Slots:       *slots,
		Poll:        *poll,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Fprintf(os.Stderr, "swexd: worker %q serving %s\n", *name, *coordinator)
	return w.Run(ctx)
}

// submit renders exhibit matrices through a coordinator.
func submit(args []string) error {
	fs := flag.NewFlagSet("swexd submit", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://localhost:7009", "coordinator base URL")
	quick := fs.Bool("quick", false, "run reduced problem sizes")
	salt := fs.String("salt", "", "extra key material mixed into every job hash")
	quiet := fs.Bool("quiet", false, "suppress the per-matrix progress line")
	fs.Parse(args)

	selected, err := swex.SelectMatrices(fs.Args())
	if err != nil {
		return err
	}
	client := &swexd.Client{Base: *coordinator, Salt: *salt}
	opts := swex.Options{Quick: *quick, Sweep: client}
	for _, m := range selected {
		start := time.Now()
		out, _, err := m.Render(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		fmt.Printf("== %s: %s\n\n%s\n", m.Name, m.Caption, out)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "swexd: %s: %d job(s), %.1fs via %s\n",
				m.Name, len(m.Jobs(opts)), time.Since(start).Seconds(), *coordinator)
		}
	}
	return nil
}

// status prints a coordinator's state: every sweep, worker, and counter,
// or one sweep's per-job detail.
func status(args []string) error {
	fs := flag.NewFlagSet("swexd status", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://localhost:7009", "coordinator base URL")
	jsonOut := fs.Bool("json", false, "emit newline-delimited JSON records instead of the human-readable report")
	fs.Parse(args)

	ctx := context.Background()
	client := &swexd.Client{Base: *coordinator}
	if fs.NArg() > 0 {
		st, err := client.Status(ctx, fs.Arg(0))
		if err != nil {
			return err
		}
		if *jsonOut {
			return swexd.WriteStatusJSON(os.Stdout, st)
		}
		fmt.Printf("sweep %s: %d job(s), done=%v\n", st.ID, st.Total, st.Done)
		for _, j := range st.Jobs {
			line := fmt.Sprintf("  [%3d] %-7s %s", j.Index, j.State, j.Desc)
			if j.Worker != "" {
				line += fmt.Sprintf(" (worker %s)", j.Worker)
			}
			if j.Retries > 0 {
				line += fmt.Sprintf(" (retries %d)", j.Retries)
			}
			fmt.Println(line)
			if j.Err != "" {
				fmt.Printf("        %s\n", j.Err)
			}
		}
		return nil
	}

	sweeps, err := client.SweepList(ctx)
	if err != nil {
		return err
	}
	if *jsonOut {
		return swexd.WriteSweepListJSON(os.Stdout, sweeps)
	}
	fmt.Printf("%d sweep(s)\n", len(sweeps))
	for _, s := range sweeps {
		fmt.Printf("  %s: %d job(s), done=%v, counts=%v\n", s.ID, s.Total, s.Done, s.Counts)
	}
	workers, err := client.Workers(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%d worker(s)\n", len(workers))
	for _, w := range workers {
		fmt.Printf("  %s %q: %d active, %d completed, %d failed, last seen %s\n",
			w.ID, w.Name, len(w.Active), w.Completed, w.Failed, w.LastSeen)
	}
	vars, err := client.Vars(ctx)
	if err != nil {
		return err
	}
	fmt.Println("counters")
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s = %d\n", k, vars[k])
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: swexd <subcommand> [flags]

subcommands:
  serve   host the coordinator (HTTP front end + worker RPC)
  worker  attach an execution worker to a coordinator
  submit  render exhibit matrices through a coordinator
  status  print a coordinator's sweeps, workers, and counters

matrices (for submit):
`)
	for _, m := range swex.Matrices() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", m.Name, m.Caption)
	}
}
