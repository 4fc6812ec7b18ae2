package main

import (
	"context"
	"fmt"

	"swex/internal/apps"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/mc"
	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/sweep"
)

// cycleLimit bounds every machine run in simulated cycles. The committed
// fingerprints finish far below it, so hitting it is a failure, not a
// measurement.
const cycleLimit sim.Cycle = 50_000_000

// Campaign shape: a swexfuzz-style run of the litmus corpus plus seeded
// generated programs across three spectrum points on 4-node machines.
const (
	campaignNodes    = 4
	campaignPrograms = 1000
	// sweepWorkers is the campaign's sweep.Runner pool. One worker keeps
	// the closed loop steady on a small shared host; GOMAXPROCS is left
	// alone so the collector still has the other cores.
	sweepWorkers = 1
)

var campaignAliases = []string{"full", "h1ack", "dir1sw"}

// A workload is one input set of the benchmark. prepare does the untimed
// set-up of one pass; the pass it returns runs the timed phase.
type workload struct {
	name    string
	prepare func(seed uint64, tr *tracer) (*pass, error)
}

// pass is one prepared repetition of a workload.
type pass struct {
	// run is the timed phase.
	run func() error
	// tally reads the pass's counts and applies the correctness gate,
	// after the clock has stopped.
	tally func() tally
}

// tally is what one pass produced. Units follow the metric definitions
// in README.md.
type tally struct {
	runs, failed int
	// events is simulated events: engine events on the machine
	// workloads, protocol messages on the campaign, transitions on mc.
	events uint64
	// states is distinct states: simulated cycles on the machine
	// workloads (one machine state per cycle), explored states on mc.
	states uint64
	cycles uint64

	messages, hopTotal, rxWait    uint64
	busyRetries, requests         uint64
	traps, handlerCycles          uint64
	evictions                     uint64
	transitions, slept, violation uint64
	quiescent                     uint64
}

var workloads = []workload{
	{name: "tsp256-fullmap", prepare: func(_ uint64, tr *tracer) (*pass, error) {
		cfg := machine.Config{Nodes: 256, Spec: proto.FullMap(), VictimLines: 8}
		return machinePass("tsp256-fullmap", cfg, apps.TSP(apps.DefaultTSP()), tr)
	}},
	{name: "worker64-h0", prepare: func(_ uint64, tr *tracer) (*pass, error) {
		cfg := machine.DefaultConfig(64, proto.SoftwareOnly())
		return machinePass("worker64-h0", cfg, apps.Worker(apps.WorkerParams{SetSize: 16, Iters: 10}), tr)
	}},
	{name: "litmus-campaign", prepare: func(seed uint64, tr *tracer) (*pass, error) {
		return campaignPass(seed, campaignPrograms, 0, tr)
	}},
	{name: "mc-2n2b-h5", prepare: func(_ uint64, tr *tracer) (*pass, error) {
		return mcPass(tr)
	}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// machinePass sets up one application run on a fresh machine.
func machinePass(name string, cfg machine.Config, prog apps.Program, tr *tracer) (*pass, error) {
	var m *machine.Machine
	var err error
	tr.span("machine.New", func() { m, err = machine.New(cfg) })
	if err != nil {
		return nil, err
	}
	var inst apps.Instance
	tr.span("apps.Setup", func() { inst = prog.Setup(m) })
	tr.observe(m.Engine)

	var res machine.Result
	p := &pass{}
	p.run = func() error {
		tr.span("machine.Run", func() { res, err = m.Run(inst.Thread, cycleLimit) })
		return err
	}
	p.tally = func() tally {
		t := tally{
			runs:          1,
			events:        m.Engine.Fired(),
			cycles:        uint64(res.Time),
			messages:      res.Messages,
			hopTotal:      m.Net.HopTotal,
			busyRetries:   res.BusyRetries,
			traps:         res.Traps,
			handlerCycles: uint64(res.HandlerCycles),
		}
		t.states = t.cycles
		for i := 0; i < cfg.Nodes; i++ {
			t.rxWait += uint64(m.Net.RxWaited(i))
			t.evictions += m.Fabric.Cache(mem.NodeID(i)).Cache().Stats.Evictions
		}
		if res.Counters != nil {
			t.requests = res.Counters.Get("msg."+proto.MsgRREQ.String()) + res.Counters.Get("msg."+proto.MsgWREQ.String())
		}
		got := machineFingerprint{Cycles: t.cycles, Events: t.events, Messages: t.messages, Traps: t.traps, BusyRetries: t.busyRetries}
		if err != nil || got != fingerprints.Machines[name] {
			t.failed = 1
		}
		return t
	}
	return p, nil
}

// litmusRun is one campaign job with its verdict.
type litmusRun struct {
	name string // corpus test name, or "" for a generated program
	prog litmus.Program
	job  sweep.Job
	ok   bool // judged sequentially consistent
	err  error
	res  sweep.Result
}

// campaignJobs builds the campaign's job matrix: the corpus tests that
// fit the machine, then count programs generated from seed, on each spec
// that can host them. Generated per-variable overrides draw from the
// software-capable, not software-only, aliases, as swexfuzz does, so each
// has a base to run on.
func campaignJobs(seed uint64, count, loseInv int) ([]litmusRun, error) {
	var pool []string
	specs := make([]proto.Spec, len(campaignAliases))
	for i, alias := range campaignAliases {
		spec, err := litmus.SpecByAlias(alias)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
		if spec.UsesSoftware() && !spec.SoftwareOnly {
			pool = append(pool, alias)
		}
	}
	type entry struct {
		name string
		prog litmus.Program
	}
	var entries []entry
	for _, tc := range litmus.Corpus() {
		if len(tc.Prog.Threads) <= campaignNodes {
			entries = append(entries, entry{tc.Name, tc.Prog})
		}
	}
	r := sim.NewRand(seed)
	gen := litmus.GenConfig{SpecAliases: pool}
	for i := 0; i < count; i++ {
		entries = append(entries, entry{"", litmus.Generate(r, gen)})
	}
	var runs []litmusRun
	for s, spec := range specs {
		for _, e := range entries {
			if !litmus.CompatibleBase(e.prog, spec) {
				continue
			}
			cfg := machine.DefaultConfig(campaignNodes, spec)
			cfg.LoseInv = loseInv
			job := sweep.LitmusJob(e.prog, cfg)
			job.Limit = cycleLimit
			name := e.name
			if name != "" {
				name += "@" + campaignAliases[s]
			}
			runs = append(runs, litmusRun{name: name, prog: e.prog, job: job})
		}
	}
	return runs, nil
}

// campaignPass sets up one campaign: the job matrix and a fresh runner
// with no disk cache (a reused runner would serve memoized results).
func campaignPass(seed uint64, count, loseInv int, tr *tracer) (*pass, error) {
	var runs []litmusRun
	var runner *sweep.Runner
	var err error
	tr.span("campaign.Setup", func() {
		runs, err = campaignJobs(seed, count, loseInv)
		if err == nil {
			runner, err = sweep.NewRunner(sweep.Config{Workers: sweepWorkers, OnExecute: tr.onExecute()})
		}
	})
	if err != nil {
		return nil, err
	}
	jobs := make([]sweep.Job, len(runs))
	for i := range runs {
		jobs[i] = runs[i].job
	}
	p := &pass{}
	p.run = func() error {
		outcomes := runner.Sweep(context.Background(), jobs)
		tr.endExecutes()
		for i, out := range outcomes {
			r := &runs[i]
			if r.err = out.Err; r.err != nil {
				continue
			}
			r.res = out.Result
			var obs [][]uint64
			if obs, r.err = litmus.ThreadObs(r.prog, out.Result.Obs, r.job.Config.ThreadsPerNode); r.err != nil {
				continue
			}
			var v litmus.Verdict
			tr.span("litmus.CheckSC", func() { v, r.err = litmus.CheckSC(r.prog, obs) })
			r.ok = v.OK
		}
		return runner.Close()
	}
	p.tally = func() tally { return campaignTally(seed, count, runs) }
	return p, nil
}

// campaignTally applies the campaign gate: every run must finish and pass
// the SC oracle, each corpus run must reproduce its committed digest, and
// for seeds with a committed campaign digest the whole campaign must
// reproduce it too.
func campaignTally(seed uint64, count int, runs []litmusRun) tally {
	t := tally{runs: len(runs)}
	whole := newDigest()
	for _, r := range runs {
		t.events += r.res.Messages
		t.cycles += uint64(r.res.Time)
		t.messages += r.res.Messages
		t.busyRetries += r.res.BusyRetries
		t.traps += r.res.Traps
		t.handlerCycles += uint64(r.res.HandlerCycles)
		bad := r.err != nil || !r.ok
		if r.err == nil && !r.ok {
			t.violation++
		}
		d := resultDigest(r.res)
		whole.add(d)
		if r.name != "" && fingerprints.Corpus[r.name] != d {
			bad = true
		}
		if bad {
			t.failed++
		}
	}
	t.states = t.cycles
	if want, ok := fingerprints.Campaigns[campaignKey(seed, count)]; ok && t.failed == 0 {
		if want.Runs != len(runs) || want.Digest != whole.hex() {
			t.failed = len(runs)
		}
	}
	return t
}

// mcPass builds the model-checker configuration: LimitLESS-5, 2 nodes,
// 2 blocks, 3 operations, partial-order reduction on.
func mcPass(tr *tracer) (*pass, error) {
	var cfg mc.Config
	tr.span("mc.Config", func() {
		cfg = mc.Config{Spec: proto.LimitLESS(5), Nodes: 2, Blocks: 2, MaxOps: 3, POR: true}
	})
	var res *mc.Result
	var err error
	p := &pass{}
	p.run = func() error {
		tr.span("mc.Check", func() { res, err = mc.Check(cfg) })
		return err
	}
	p.tally = func() tally {
		t := tally{runs: 1}
		if err != nil || res == nil {
			t.failed = 1
			return t
		}
		t.events, t.transitions = res.Transitions, res.Transitions
		t.states, t.slept, t.quiescent = res.States, res.SleptTransitions, res.Quiescent
		got := mcFingerprint{States: res.States, Transitions: res.Transitions, Quiescent: res.Quiescent, Slept: res.SleptTransitions}
		if res.Violation != nil || res.Bounded || got != fingerprints.MC {
			t.failed = 1
		}
		return t
	}
	return p, nil
}
