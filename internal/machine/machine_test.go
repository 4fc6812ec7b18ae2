package machine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/sim"
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

// TestReleasedMachine checks both sides of Release: a Result read before
// it stays intact while a later machine runs on the released storage, and
// every use of the released machine panics rather than reach that later
// machine.
func TestReleasedMachine(t *testing.T) {
	cfg := DefaultConfig(8, proto.LimitLESS(2))
	run := func(m *Machine) Result {
		a := m.Mem.AllocOn(0, 1)
		res, err := m.Run(func(env *proc.Env) {
			env.Read(a)
			env.FetchAdd(a, 1)
		}, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	render := func(r Result) string {
		return fmt.Sprintf("%d %v %d %d %d %s %s %d", r.Time, r.Finish, r.Traps, r.HandlerCycles,
			r.Messages, r.Counters, r.WorkerSets, r.Ledger.N())
	}
	m := MustNew(cfg)
	res := run(m)
	want := render(res)
	m.Release()
	if got := render(run(MustNew(cfg))); got != want {
		t.Fatalf("a machine on released storage ran differently:\n%s\nwant:\n%s", got, want)
	}
	if got := render(res); got != want {
		t.Fatalf("a result read before Release changed:\n%s\nwant:\n%s", got, want)
	}

	uses := map[string]func(m *Machine){
		"Run":            func(m *Machine) { run(m) },
		"ConfigureBlock": func(m *Machine) { m.ConfigureBlock(0, proto.FullMap()) },
		"Release":        func(m *Machine) { m.Release() },
	}
	for name, use := range uses {
		m := MustNew(cfg)
		run(m)
		m.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released machine did not panic", name)
				}
			}()
			use(m)
		}()
	}
}
