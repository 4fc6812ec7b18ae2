// Command perfbench is the simulator's benchmark. It runs one workload in
// a closed loop for a fixed time, checks every simulated result against
// the committed fingerprints, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of stdout:
//
//	bash perfbench/run.sh --workload tsp256-fullmap --seed 1 --seconds 15 --trace 0
//
// Host time never reaches the simulator's own output: it is read only
// here. See README.md for the workloads and every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// gomaxprocs pins the benchmark to one scheduler thread. Simulated
// threads hand off to the engine on every operation; with a second thread
// the runtime spreads those handoffs across cores and the timings vary
// with whatever else the host runs, by about 20% between processes on a
// 2-core host against a few percent on one. The sweep pool has one worker
// for the same reason.
const gomaxprocs = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "seed for the campaign's generated programs and the microbenchmarks' address streams")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in host seconds")
	traced := flag.Int("trace", 0, "1 = per-layer run: profile, spans, counters and microbenchmarks")
	commit := flag.String("commit", "none", "commit of the code under test, for the host record")
	rec := flag.String("record", "", "print fresh fingerprints for this comma-separated seed list, then exit")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if err := loadFingerprints(); err != nil {
		return err
	}
	if *rec != "" {
		var seeds []uint64
		for _, f := range strings.Split(*rec, ",") {
			s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return fmt.Errorf("-record %q: %w", *rec, err)
			}
			seeds = append(seeds, s)
		}
		return record(seeds)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	host, err := json.Marshal(hostRecord(*commit))
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)

	// The negative control: the corpus campaign on machines that drop an
	// invalidation must fail the gate, or the gate has no teeth.
	ctl, err := runOnce(negativeControl, *seed)
	if err != nil {
		return fmt.Errorf("negative control: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: LoseInv negative control: %d of %d runs failed the gate, %d judged not SC\n", ctl.failed, ctl.runs, ctl.violation)

	var res result
	if *traced == 0 {
		res, err = endToEnd(w, *seed, *seconds)
	} else {
		res, err = perLayer(w, *seed, *seconds, ctl)
	}
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0 && ctl.failed > 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// negativeControl is the corpus campaign on a machine weakened with
// machine.Config.LoseInv: the first invalidation of every run is dropped.
var negativeControl = workload{name: "loseinv-control", prepare: func(seed uint64, tr *tracer) (*pass, error) {
	return campaignPass(seed, 0, 1, tr)
}}

// runOnce prepares and runs one pass and returns its tally.
func runOnce(w workload, seed uint64) (tally, error) {
	p, err := w.prepare(seed, nil)
	if err != nil {
		return tally{}, err
	}
	if err := p.run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
	}
	return p.tally(), nil
}

// sample is one pass: a set-up sample, then the timed phase. Its times
// are unscaled host seconds; the metrics multiply them by scale.
type sample struct {
	setup float64 // host seconds of one set-up
	wall  float64 // host seconds of the timed phase
	rt    rtStats // runtime activity during the timed phase
	scale float64 // hostScale around the pass
	t     tally
}

// setupBatch is how many back-to-back set-ups make one set-up sample:
// enough to last 20 ms, so even a set-up of a microsecond reads steadily.
func setupBatch(w workload, seed uint64) (int, error) {
	for batch := 1; ; batch *= 2 {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := w.prepare(seed, nil); err != nil {
				return 0, err
			}
		}
		if time.Since(t0).Seconds() >= 0.020 || batch >= 1<<20 {
			return batch, nil
		}
	}
}

// loop runs passes of w for at least seconds of host time (at least one
// pass). Each pass times batch set-ups and runs the last one's work,
// forcing a collection before the set-ups and before the timed phase so no
// pass pays for its predecessor's garbage. A non-nil tracer adds spans and
// a CPU profile of each timed phase.
func loop(w workload, seed uint64, seconds float64, batch int, tr *tracer) ([]sample, error) {
	var out []sample
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		var p *pass
		var err error
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if p, err = w.prepare(seed, tr); err != nil {
				return nil, err
			}
		}
		s := sample{setup: time.Since(t0).Seconds() / float64(batch)}
		runtime.GC()
		before := hostScale()
		if tr != nil {
			if err := tr.startProfile(); err != nil {
				return nil, err
			}
		}
		r0 := readRuntime()
		t0 = time.Now()
		var runErr error
		tr.span("pass", func() { runErr = p.run() })
		s.wall = time.Since(t0).Seconds()
		s.rt = readRuntime().sub(r0)
		if tr != nil {
			tr.stopProfile()
		}
		s.scale = 2 / (1/before + 1/hostScale())
		s.t = p.tally()
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, runErr)
			s.t.failed = s.t.runs
		}
		out = append(out, s)
	}
	return out, nil
}

// endToEnd is the --trace 0 run: one warm-up pass, then the timed loop.
func endToEnd(w workload, seed uint64, seconds float64) (result, error) {
	batch, err := setupBatch(w, seed)
	if err != nil {
		return result{}, err
	}
	warm, err := loop(w, seed, 0, batch, nil)
	if err != nil {
		return result{}, err
	}
	samples, err := loop(w, seed, seconds, batch, nil)
	if err != nil {
		return result{}, err
	}
	res := gateCounts(append(warm, samples...))
	speed := median(samples, func(s sample) float64 { return s.scale })
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, host speed %.2f of reference, unscaled wall median %.4fs\n",
		w.name, len(samples), speed, median(samples, func(s sample) float64 { return s.wall }))
	res.Metrics = map[string]metric{
		"wall_s":       {median(samples, func(s sample) float64 { return s.wall * s.scale }), "s"},
		"setup_s":      {median(samples, func(s sample) float64 { return s.setup * s.scale }), "s"},
		"events_per_s": {median(samples, func(s sample) float64 { return float64(s.t.events) / (s.wall * s.scale) }), "1/s"},
		"runs_per_s":   {median(samples, func(s sample) float64 { return float64(s.t.runs) / (s.wall * s.scale) }), "1/s"},
		"states_per_s": {median(samples, func(s sample) float64 { return float64(s.t.states) / (s.wall * s.scale) }), "1/s"},
		"alloc_mb":     {median(samples, func(s sample) float64 { return float64(s.rt.allocBytes) / 1e6 }), "MB"},
		"max_rss_mb":   {maxRSSMB(), "MB"},
	}
	return res, nil
}

// gateCounts totals the gate's verdicts over passes.
func gateCounts(samples []sample) result {
	var r result
	for _, s := range samples {
		r.Attempted += s.t.runs
		r.Failed += s.t.failed
	}
	return r
}

func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(samples []sample, f func(sample) float64) float64 { return medianOf(values(samples, f)) }

func values(samples []sample, f func(sample) float64) []float64 {
	vs := make([]float64, len(samples))
	for i, s := range samples {
		vs[i] = f(s)
	}
	return vs
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
