package machine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/stats"
)

func TestTrivialProgramCompletes(t *testing.T) {
	m := MustNew(DefaultConfig(4, proto.FullMap()))
	res, err := m.Run(func(env *proc.Env) {
		env.Compute(10)
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time == 0 {
		t.Fatal("run took zero time")
	}
	for i, f := range res.Finish {
		if f == 0 {
			t.Fatalf("node %d has no finish time", i)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	program := func(env *proc.Env) {
		base := mem.SegBase(0)
		for i := 0; i < 20; i++ {
			env.FetchAdd(base, 1)
			env.Read(base + mem.Addr(8*(int(env.ID())%4)))
			env.Compute(5)
		}
	}
	times := make([]sim.Cycle, 3)
	for trial := range times {
		m := MustNew(DefaultConfig(8, proto.LimitLESS(2)))
		m.Mem.AllocOn(0, 64)
		res, err := m.Run(program, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		times[trial] = res.Time
	}
	if times[0] != times[1] || times[1] != times[2] {
		t.Fatalf("nondeterministic run times: %v", times)
	}
}

func TestSharedCounterAcrossProtocols(t *testing.T) {
	for _, spec := range proto.Spectrum() {
		t.Run(spec.Name, func(t *testing.T) {
			m := MustNew(DefaultConfig(8, spec))
			a := m.Mem.AllocOn(0, 1)
			res, err := m.Run(func(env *proc.Env) {
				for i := 0; i < 5; i++ {
					env.FetchAdd(a, 1)
				}
			}, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Mem.Read(a); got != 0 {
				// The final value lives in some cache; flush by
				// reading through a fresh machine is impossible, so
				// check via the directory-owned value after the run:
				// simplest is to verify through a follow-up read.
				_ = got
			}
			// Verify with one more read from node 0.
			val := readWord(t, m, a)
			if val != 40 {
				t.Fatalf("counter = %d, want 40", val)
			}
			_ = res
		})
	}
}

// readWord drives one read on a finished machine.
func readWord(t *testing.T, m *Machine, a mem.Addr) uint64 {
	t.Helper()
	var got uint64
	done := false
	m.Fabric.Cache(0).Access(a, proto.Op{Done: func(v uint64) { got = v; done = true }})
	if !m.Engine.RunUntil(func() bool { return done }, 10_000_000) {
		t.Fatal("verification read did not complete")
	}
	return got
}

func TestSoftwareProtocolSlowerThanFullMap(t *testing.T) {
	// A widely shared, repeatedly written block must run slower on the
	// software-only directory than on full-map hardware.
	run := func(spec proto.Spec) sim.Cycle {
		m := MustNew(DefaultConfig(8, spec))
		a := m.Mem.AllocOn(0, 1)
		res, err := m.Run(func(env *proc.Env) {
			for i := 0; i < 10; i++ {
				env.Read(a)
				env.FetchAdd(a, 1)
			}
		}, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	full := run(proto.FullMap())
	h0 := run(proto.SoftwareOnly())
	if h0 <= full {
		t.Fatalf("software-only (%d cycles) not slower than full-map (%d)", h0, full)
	}
}

func TestTrapsCountedForLimitLESS(t *testing.T) {
	m := MustNew(DefaultConfig(8, proto.LimitLESS(2)))
	a := m.Mem.AllocOn(0, 1)
	res, err := m.Run(func(env *proc.Env) {
		env.Read(a) // 8 readers overflow 2 pointers
	}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps == 0 {
		t.Fatal("8 readers through 2 pointers should trap")
	}
	if res.Ledger == nil || res.Ledger.N() == 0 {
		t.Fatal("ledger empty after traps")
	}
	if res.HandlerCycles == 0 {
		t.Fatal("no handler cycles recorded")
	}
}

func TestFullMapNoTrapsNoLedger(t *testing.T) {
	m := MustNew(DefaultConfig(8, proto.FullMap()))
	a := m.Mem.AllocOn(0, 1)
	res, err := m.Run(func(env *proc.Env) { env.Read(a) }, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps != 0 {
		t.Fatalf("full-map trapped %d times", res.Traps)
	}
	if res.Ledger != nil {
		t.Fatal("full-map machine has a software ledger")
	}
}

func TestWorkerSetHistogram(t *testing.T) {
	m := MustNew(DefaultConfig(8, proto.FullMap()))
	a := m.Mem.AllocOn(0, 1)
	res, err := m.Run(func(env *proc.Env) { env.Read(a) }, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkerSets.Count(8) != 1 {
		t.Fatalf("worker-set histogram = %v, want one 8-node set", res.WorkerSets)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := MustNew(DefaultConfig(2, proto.FullMap()))
	a := m.Mem.AllocOn(0, 1)
	_, err := m.Run(func(env *proc.Env) {
		env.WaitChange(a, 0) // nobody ever writes: deadlock
	}, 100_000)
	if err == nil {
		t.Fatal("deadlocked run reported success")
	}
}

func TestRunLimitEnforced(t *testing.T) {
	m := MustNew(DefaultConfig(2, proto.FullMap()))
	_, err := m.Run(func(env *proc.Env) {
		for i := 0; i < 1000; i++ {
			env.Compute(1000)
		}
	}, 10_000)
	if err == nil {
		t.Fatal("limit exceeded but no error")
	}
}

// drainedGoroutines empties the thread pool, then returns
// runtime.NumGoroutine once it has held steady across ten consecutive
// short sleeps (at most a bounded number of reads). A finished thread's
// coroutine stays parked in the pool as a goroutine until two collections
// drop its handle and the handle's finalizer, queued by the time
// runtime.GC returns, stops it. The previous test's runner goroutine may
// still be exiting too. Sleeping lets this goroutine's processor pick up
// both; under -race the runner was seen to stay runnable through a
// thousand runtime.Gosched calls.
func drainedGoroutines() int {
	runtime.GC()
	runtime.GC()
	n := runtime.NumGoroutine()
	for steady, tries := 0, 0; steady < 10 && tries < 1000; tries++ {
		time.Sleep(100 * time.Microsecond)
		if now := runtime.NumGoroutine(); now == n {
			steady++
		} else {
			n, steady = now, 0
		}
	}
	return n
}

// TestFailedRunsReleaseThreads checks that a run ending in an error
// unwinds every unfinished thread: the threads' deferred calls run and no
// suspended coroutine is left behind. Both goroutine counts are taken
// with the thread pool drained, so threads that earlier tests finished
// and pooled are not counted.
func TestFailedRunsReleaseThreads(t *testing.T) {
	before := drainedGoroutines()
	unwound := 0
	m := MustNew(DefaultConfig(4, proto.FullMap()))
	a := m.Mem.AllocOn(0, 1)
	if _, err := m.Run(func(env *proc.Env) {
		defer func() { unwound++ }()
		env.WaitChange(a, 0) // nobody ever writes: deadlock
	}, 100_000); err == nil {
		t.Fatal("deadlocked run reported success")
	}
	m = MustNew(DefaultConfig(4, proto.FullMap()))
	if _, err := m.Run(func(env *proc.Env) {
		defer func() { unwound++ }()
		for i := 0; i < 1000; i++ {
			env.Compute(1000)
		}
	}, 10_000); err == nil {
		t.Fatal("limit exceeded but no error")
	}
	m = MustNew(DefaultConfig(4, proto.FullMap()))
	a = m.Mem.AllocOn(0, 1)
	if _, err := m.Run(func(env *proc.Env) {
		defer func() { unwound++ }()
		env.WaitChange(a, 0)
	}, 0); err == nil {
		t.Fatal("deadlocked unlimited run reported success")
	}
	if unwound != 12 {
		t.Fatalf("%d of 12 stuck threads unwound", unwound)
	}
	if after := drainedGoroutines(); after != before {
		t.Fatalf("goroutines: %d before the failed runs, %d after", before, after)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New(Config{Nodes: 0, Spec: proto.FullMap()}); err == nil {
		t.Fatal("zero-node machine accepted")
	}
	if _, err := New(Config{Nodes: 4, Spec: proto.LimitLESS(2), Software: TunedASM}); err == nil {
		t.Fatal("assembly software accepted for non-H5 protocol")
	}
}

func TestVictimCacheConfigApplied(t *testing.T) {
	m := MustNew(Config{Nodes: 2, Spec: proto.FullMap(), VictimLines: 4, CacheLines: 8})
	// Conflict two blocks in the 8-line cache; the victim cache absorbs.
	a1 := m.Mem.AllocOn(0, 1)
	a2 := a1 + 8*mem.WordsPerBlock
	res, err := m.Run(func(env *proc.Env) {
		if env.ID() != 1 {
			return
		}
		for i := 0; i < 10; i++ {
			env.Read(a1)
			env.Read(a2)
		}
	}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Fabric.Cache(1).Cache().Stats
	if st.VictimHits == 0 {
		t.Fatal("victim cache never hit")
	}
	_ = res
}

func TestPerfectIfetchConfig(t *testing.T) {
	m := MustNew(Config{Nodes: 2, Spec: proto.FullMap(), PerfectIfetch: true})
	res, err := m.Run(func(env *proc.Env) {
		env.SetCode(proc.CodeSpace, 16)
		env.Compute(5)
		env.Compute(5)
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fabric.Cache(0).Cache().Stats.IMisses != 0 {
		t.Fatal("perfect ifetch recorded instruction misses")
	}
	_ = res
}

func TestIfetchModeledWhenEnabled(t *testing.T) {
	m := MustNew(Config{Nodes: 2, Spec: proto.FullMap()})
	_, err := m.Run(func(env *proc.Env) {
		env.SetCode(proc.CodeSpace, 4)
		for i := 0; i < 10; i++ {
			env.Compute(1)
		}
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Fabric.Cache(0).Cache().Stats
	if st.IMisses == 0 || st.IHits == 0 {
		t.Fatalf("ifetch not modeled: %d hits, %d misses", st.IHits, st.IMisses)
	}
}

func TestConfigureBlockThroughMachine(t *testing.T) {
	m := MustNew(DefaultConfig(8, proto.LimitLESS(2)))
	a := m.Mem.AllocOn(0, 1)
	if err := m.ConfigureBlock(mem.BlockOf(a), proto.FullMap()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(func(env *proc.Env) { env.Read(a) }, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps != 0 {
		t.Fatalf("full-map-configured block trapped %d times with 8 readers", res.Traps)
	}
}

// resetConfigs move a reset machine between sizes, protocols with and
// without extension software (built in, hand-tuned or custom), thread
// counts, cache geometries and the optional enhancements, with a
// lost-invalidation fixture among them.
func resetConfigs() []Config {
	return []Config{
		DefaultConfig(8, proto.LimitLESS(2)),
		{Nodes: 4, Spec: proto.FullMap(), ThreadsPerNode: 2},
		{Nodes: 16, Spec: proto.SoftwareOnly(), CacheLines: 64, CacheWays: 2, VictimLines: 4},
		{Nodes: 4, Spec: proto.LimitLESS(5), Software: TunedASM, BatchReads: true, ParallelInv: true},
		{Nodes: 8, Spec: proto.OnePointer(proto.AckSW), MigratoryDetect: true, LoseInv: 3},
		{Nodes: 2, Spec: proto.Dir1SW(), PerfectIfetch: true, ThreadsPerNode: 4},
		{Nodes: 8, Spec: proto.LimitLESS(2), CustomSoftware: proto.NewNopSoftware()},
		{Nodes: 1, Spec: proto.FullMap(), CacheLines: 32},
	}
}

// resetProgram allocates a striped array on m and returns a program
// whose threads read, write, fetch-and-add, check in and compute over
// it, so every layer holds state when a run ends.
func resetProgram(m *Machine, iters int) func(*proc.Env) {
	words := m.Mem.AllocStriped(8)
	return func(env *proc.Env) {
		id := int(env.ID())*proc.MaxContexts + env.Thread()
		for i := 0; i < iters; i++ {
			a := words[(id+i)%len(words)] + mem.Addr(i%8)
			env.FetchAdd(a, 1)
			env.Read(words[(3*id+i)%len(words)])
			if i%3 == 0 {
				env.Write(a+1, uint64(1000*id+i+1))
			}
			if i%4 == 1 {
				env.CheckIn(a)
			}
			env.Compute(sim.Cycle(1 + (id+i)%7))
		}
	}
}

// renderRun runs resetProgram on m under limit and renders everything a
// caller can read afterwards: the result, the error, and each layer's
// statistics.
func renderRun(m *Machine, limit sim.Cycle) string {
	res, err := m.Run(resetProgram(m, 12), limit)
	var b strings.Builder
	fmt.Fprintf(&b, "err %v\nfired %d now %d pending %d\n", err, m.Engine.Fired(), m.Engine.Now(), m.Engine.Pending())
	fmt.Fprintf(&b, "net %d msgs %d flits %d hops\n", m.Net.Messages, m.Net.Flits, m.Net.HopTotal)
	for _, n := range m.Nodes {
		fmt.Fprintf(&b, "node %d: ops %d mem %d fin %d in use %d\n", n.ID, n.Ops, n.MemOps, n.FinishedAt(), m.Mem.InUse(n.ID))
	}
	if err != nil {
		return b.String()
	}
	fmt.Fprintf(&b, "time %d finish %v traps %d handler %d msgs %d retries %d\ncounters %s\nworker sets %s\n",
		res.Time, res.Finish, res.Traps, res.HandlerCycles, res.Messages, res.BusyRetries, res.Counters, res.WorkerSets)
	if res.Ledger != nil {
		read, _ := res.Ledger.Median(stats.ReadRequest, -1)
		fmt.Fprintf(&b, "ledger %d records, read mean %.3f, median %v\n",
			res.Ledger.N(), res.Ledger.Mean(stats.ReadRequest, -1), read.Breakdown)
	}
	return b.String()
}

// TestResetMachineIsFresh holds a machine reset between configurations,
// after runs to completion and runs cut short by their cycle limit, to a
// machine New builds: every run renders the same on both.
func TestResetMachineIsFresh(t *testing.T) {
	cfgs := resetConfigs()
	rnd := sim.NewRand(11)
	var m *Machine
	for step := 0; step < 40; step++ {
		cfg := cfgs[rnd.Intn(len(cfgs))]
		limit := sim.Cycle(0)
		if rnd.Intn(3) == 0 {
			limit = sim.Cycle(50 + rnd.Intn(400))
		}
		if m == nil {
			m = MustNew(cfg)
		} else if err := m.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		got := renderRun(m, limit)
		if cfg.CustomSoftware != nil {
			// The custom software keeps sharer lists: give the new
			// machine its own.
			cfg.CustomSoftware = proto.NewNopSoftware()
		}
		want := renderRun(MustNew(cfg), limit)
		if got != want {
			t.Fatalf("step %d (%+v, limit %d): reset machine:\n%s\nnew machine:\n%s", step, cfg, limit, got, want)
		}
	}
}

// TestResetRejectsWhatNewRejects requires Reset to return New's error for
// a configuration New refuses and to leave the machine as it was.
func TestResetRejectsWhatNewRejects(t *testing.T) {
	cfg := DefaultConfig(4, proto.LimitLESS(2))
	for _, bad := range []Config{
		{Nodes: 0, Spec: proto.FullMap()},
		{Nodes: 4, Spec: proto.LimitLESS(2), ThreadsPerNode: proc.MaxContexts + 1},
		{Nodes: 4, Spec: proto.LimitLESS(2), Software: TunedASM},
	} {
		m := MustNew(cfg)
		_, newErr := New(bad)
		err := m.Reset(bad)
		if err == nil || newErr == nil || err.Error() != newErr.Error() {
			t.Fatalf("Reset(%+v) = %v, New = %v", bad, err, newErr)
		}
		if m.Cfg.Spec.Name != cfg.Spec.Name || m.Cfg.Nodes != cfg.Nodes || len(m.Nodes) != cfg.Nodes {
			t.Fatalf("a refused Reset changed the machine to %+v", m.Cfg)
		}
		if got, want := renderRun(m, 0), renderRun(MustNew(cfg), 0); got != want {
			t.Fatalf("after a refused Reset the machine ran:\n%s\nwant:\n%s", got, want)
		}
	}
}
