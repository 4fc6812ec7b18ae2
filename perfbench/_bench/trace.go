package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"swex/internal/sim"
	"swex/internal/sweep"
)

// tracer is the traced run's instrumentation, all of it in the
// benchmark's own files: spans around the calls into each layer, the
// engine's public Observer hook, and one CPU profile per timed phase. A
// nil *tracer records nothing, so untraced passes pay one branch per span.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices of the spans enclosing the current call
	exec   int   // the sweep.Execute span in flight, or -1

	pendingSum, pendingN uint64
	pendingMax           int

	profile  bytes.Buffer
	profiles [][]byte
}

// span is one call into a layer: its name, its start and end relative to
// the tracer's origin, and the enclosing span (-1 for none).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), exec: -1} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// span runs fn inside a span named name.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	i := t.begin(name)
	fn()
	t.end(i)
}

// onExecute returns the sweep.Runner hook that opens a span per executed
// job. With one sweep worker, jobs run back to back on the caller's
// goroutine, so each job's span ends where the next begins; endExecutes
// closes the last.
func (t *tracer) onExecute() func(sweep.Job) {
	if t == nil {
		return nil
	}
	return func(sweep.Job) {
		t.endExecutes()
		t.exec = t.begin("sweep.Execute")
	}
}

func (t *tracer) endExecutes() {
	if t == nil || t.exec < 0 {
		return
	}
	t.end(t.exec)
	t.exec = -1
}

// observe samples the engine's pending-event depth after every event.
func (t *tracer) observe(e *sim.Engine) {
	if t == nil {
		return
	}
	e.Observer = func(_ sim.Cycle, pending int) {
		t.pendingSum += uint64(pending)
		t.pendingN++
		if pending > t.pendingMax {
			t.pendingMax = pending
		}
	}
}

func (t *tracer) startProfile() error {
	t.profile.Reset()
	return pprof.StartCPUProfile(&t.profile)
}

func (t *tracer) stopProfile() {
	pprof.StopCPUProfile()
	t.profiles = append(t.profiles, append([]byte(nil), t.profile.Bytes()...))
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// report writes each span name's count, total and self time to stderr. A
// span's self time is its duration minus the time its child spans cover.
func (t *tracer) report() {
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.end - s.start
		a.self += s.end - s.start - child[i]
	}
	for _, name := range sortedKeys(by) {
		a := by[name]
		fmt.Fprintf(os.Stderr, "perfbench: span %-16s n=%-6d total=%9.1fms self=%9.1fms\n",
			name, a.n, a.total.Seconds()*1e3, a.self.Seconds()*1e3)
	}
}

// quantile returns the q-quantile of vs by linear interpolation.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// rtStats is a runtime/metrics snapshot; loop takes one around every
// timed phase.
type rtStats struct {
	allocBytes, allocObjs uint64
	gcCPU, idleCPU, cpu   float64
	schedCounts           []uint64
	schedBuckets          []float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func readRuntime() rtStats {
	metrics.Read(rtSamples)
	h := rtSamples[6].Value.Float64Histogram()
	return rtStats{
		allocBytes:   rtSamples[0].Value.Uint64(),
		allocObjs:    rtSamples[1].Value.Uint64() + rtSamples[2].Value.Uint64(),
		gcCPU:        rtSamples[3].Value.Float64(),
		idleCPU:      rtSamples[4].Value.Float64(),
		cpu:          rtSamples[5].Value.Float64(),
		schedCounts:  append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// sub returns the activity between snapshot b and the later snapshot a.
func (a rtStats) sub(b rtStats) rtStats {
	d := rtStats{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjs:    a.allocObjs - b.allocObjs,
		gcCPU:        a.gcCPU - b.gcCPU,
		idleCPU:      a.idleCPU - b.idleCPU,
		cpu:          a.cpu - b.cpu,
		schedCounts:  make([]uint64, len(a.schedCounts)),
		schedBuckets: a.schedBuckets,
	}
	for i := range a.schedCounts {
		d.schedCounts[i] = a.schedCounts[i] - b.schedCounts[i]
	}
	return d
}

func (a *rtStats) add(d rtStats) {
	a.allocBytes += d.allocBytes
	a.allocObjs += d.allocObjs
	a.gcCPU += d.gcCPU
	a.idleCPU += d.idleCPU
	a.cpu += d.cpu
	if a.schedCounts == nil {
		a.schedCounts = make([]uint64, len(d.schedCounts))
		a.schedBuckets = d.schedBuckets
	}
	for i := range d.schedCounts {
		a.schedCounts[i] += d.schedCounts[i]
	}
}

// schedQuantile reads the q-quantile of the scheduling-latency histogram
// in microseconds: the upper bound of the bucket holding it (its lower
// bound for the open top bucket).
func (a rtStats) schedQuantile(q float64) float64 {
	var total uint64
	for _, c := range a.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range a.schedCounts {
		seen += c
		if seen >= want {
			v := a.schedBuckets[i+1]
			if math.IsInf(v, 1) {
				v = a.schedBuckets[i]
			}
			return v * 1e6
		}
	}
	return 0
}

// perLayer is the --trace 1 run: a warm-up pass, then untraced and traced
// passes in alternation for seconds, then the microbenchmarks. The untraced
// passes are the reference for the tracing overhead and the source of the
// runtime/metrics figures; alternating keeps both kinds in the same spells
// of host speed.
func perLayer(w workload, seed uint64, seconds float64, ctl tally) (result, error) {
	warm, err := loop(w, seed, 0, 1, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	var plainRuns, traced []sample
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < seconds {
		plain, err := loop(w, seed, 0, 1, nil)
		if err != nil {
			return result{}, err
		}
		trc, err := loop(w, seed, 0, 1, tr)
		if err != nil {
			return result{}, err
		}
		plainRuns, traced = append(plainRuns, plain...), append(traced, trc...)
	}
	tr.report()
	shares, err := profileShares(tr.profiles)
	if err != nil {
		return result{}, err
	}
	printShares(shares)
	res := gateCounts(append(append(warm, plainRuns...), traced...))
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d untraced + %d traced passes, %d profile samples\n",
		w.name, len(plainRuns), len(traced), shares.samples)

	m := map[string]metric{}
	for _, mod := range shareModules {
		m["share."+mod] = metric{100 * shares.frac(mod), "%"}
	}
	overhead := make([]float64, len(traced))
	for i, s := range traced {
		overhead[i] = s.wall * s.scale / (plainRuns[i].wall * plainRuns[i].scale)
	}
	m["trace_overhead_pct"] = metric{100 * (medianOf(overhead) - 1), "%"}

	jobs := tr.durations("sweep.Execute")
	judge := tr.durations("litmus.CheckSC")
	m["sweep.job_ms_p50"] = metric{1e3 * quantile(jobs, 0.5), "ms"}
	m["sweep.job_ms_p99"] = metric{1e3 * quantile(jobs, 0.99), "ms"}
	m["litmus.judge_us_p50"] = metric{1e6 * quantile(judge, 0.5), "us"}
	pendingMean := 0.0
	if tr.pendingN > 0 {
		pendingMean = float64(tr.pendingSum) / float64(tr.pendingN)
	}
	m["sim.pending_mean"] = metric{pendingMean, "count"}
	m["sim.pending_max"] = metric{float64(tr.pendingMax), "count"}

	var rt rtStats
	var events uint64
	for _, s := range plainRuns {
		rt.add(s.rt)
		events += s.t.events
	}
	m["runtime.sched_latency_us_p50"] = metric{rt.schedQuantile(0.5), "us"}
	m["runtime.sched_latency_us_p99"] = metric{rt.schedQuantile(0.99), "us"}
	m["runtime.gc_cpu_frac"] = metric{ratio(rt.gcCPU, rt.cpu-rt.idleCPU), "frac"}
	m["runtime.mallocs_per_event"] = metric{ratio(float64(rt.allocObjs), float64(events)), "count"}

	// Simulated counts are deterministic; any pass shows them.
	t := plainRuns[0].t
	m["sim.events"] = metric{float64(t.events), "count"}
	m["sim_cycles"] = metric{float64(t.cycles), "cycles"}
	m["mesh.messages"] = metric{float64(t.messages), "count"}
	m["mesh.mean_hops"] = metric{ratio(float64(t.hopTotal), float64(t.messages)), "hops"}
	m["mesh.rx_wait_cycles"] = metric{float64(t.rxWait), "cycles"}
	m["proto.busy_retries"] = metric{float64(t.busyRetries), "count"}
	m["proto.busy_retry_frac"] = metric{ratio(float64(t.busyRetries), float64(t.requests)), "frac"}
	m["ext.traps"] = metric{float64(t.traps), "count"}
	m["ext.handler_cycles"] = metric{float64(t.handlerCycles), "cycles"}
	m["cache.evictions"] = metric{float64(t.evictions), "count"}
	m["mc.transitions"] = metric{float64(t.transitions), "count"}
	m["mc.slept_frac"] = metric{ratio(float64(t.slept), float64(t.slept+t.transitions)), "frac"}
	m["litmus.violations"] = metric{float64(t.violation), "count"}
	m["fail_frac"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "frac"}
	m["gate.loseinv_fail_frac"] = metric{ratio(float64(ctl.failed), float64(ctl.runs)), "frac"}

	for name, v := range microbenchmarks(seed) {
		m[name] = v
	}
	res.Metrics = m
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
