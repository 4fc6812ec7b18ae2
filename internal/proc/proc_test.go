package proc

import (
	"errors"
	"testing"

	"swex/internal/cache"
	"swex/internal/mem"
	"swex/internal/mesh"
	"swex/internal/proto"
	"swex/internal/sim"
)

// rig builds a fabric with nodes attached, for processor-level tests.
func rig(t testing.TB, nodes int, perfectIfetch bool) (*sim.Engine, *proto.Fabric, []*Node) {
	t.Helper()
	engine := sim.NewEngine()
	net := mesh.New(engine, mesh.DefaultConfig(nodes))
	memory := mem.New(nodes)
	f, err := proto.NewFabric(engine, net, memory, proto.FullMap(), proto.DefaultTiming(), nil,
		proto.CacheConfig{Cache: cache.Config{Lines: 256}, PerfectIfetch: perfectIfetch})
	if err != nil {
		t.Fatal(err)
	}
	ns := make([]*Node, nodes)
	for i := range ns {
		ns[i] = NewNode(f, mem.NodeID(i))
	}
	return engine, f, ns
}

// runAll drives the engine until every node's thread completes.
func runAll(t *testing.T, engine *sim.Engine, ns []*Node) {
	t.Helper()
	done := func() bool {
		for _, n := range ns {
			if !n.Done() {
				return false
			}
		}
		return true
	}
	if !engine.RunUntil(done, 100_000_000) {
		t.Fatal("threads did not complete")
	}
}

func TestThreadLifecycle(t *testing.T) {
	engine, _, ns := rig(t, 1, true)
	ran := false
	ns[0].Start(func(env *Env) {
		ran = true
		env.Compute(10)
	})
	runAll(t, engine, ns)
	if !ran {
		t.Fatal("thread body never ran")
	}
	if ns[0].FinishedAt() == 0 {
		t.Fatal("no finish time recorded")
	}
	if ns[0].Ops != 1 {
		t.Fatalf("Ops = %d, want 1", ns[0].Ops)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	_, _, ns := rig(t, 1, true)
	ns[0].Start(func(env *Env) {})
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	ns[0].Start(func(env *Env) {})
}

func TestStartThreadsRejectsContextCount(t *testing.T) {
	_, _, ns := rig(t, 1, true)
	for _, count := range []int{0, -1, MaxContexts + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StartThreads(%d) did not panic", count)
				}
			}()
			ns[0].StartThreads(count, func(env *Env) {})
		}()
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	engine, f, ns := rig(t, 2, true)
	a := f.Mem.AllocOn(0, 1)
	var got uint64
	ns[0].Start(func(env *Env) {
		env.Write(a, 77)
		got = env.Read(a)
	})
	ns[1].Start(func(env *Env) {})
	runAll(t, engine, ns)
	if got != 77 {
		t.Fatalf("read back %d, want 77", got)
	}
	if ns[0].MemOps != 2 {
		t.Fatalf("MemOps = %d, want 2", ns[0].MemOps)
	}
}

func TestFetchAddSemantics(t *testing.T) {
	engine, f, ns := rig(t, 1, true)
	a := f.Mem.AllocOn(0, 1)
	var olds []uint64
	ns[0].Start(func(env *Env) {
		for i := 0; i < 5; i++ {
			olds = append(olds, env.FetchAdd(a, 10))
		}
	})
	runAll(t, engine, ns)
	for i, o := range olds {
		if o != uint64(i*10) {
			t.Fatalf("FetchAdd old[%d] = %d, want %d", i, o, i*10)
		}
	}
}

func TestRMWAppliesFunction(t *testing.T) {
	engine, f, ns := rig(t, 1, true)
	a := f.Mem.AllocOn(0, 1)
	var old, final uint64
	ns[0].Start(func(env *Env) {
		env.Write(a, 6)
		old = env.RMW(a, proto.RMW{Kind: proto.RMWSwap, Arg: 42})
		final = env.Read(a)
	})
	runAll(t, engine, ns)
	if old != 6 || final != 42 {
		t.Fatalf("RMW swap old=%d final=%d, want 6 and 42", old, final)
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	engine, f, ns := rig(t, 1, true)
	a := f.Mem.AllocOn(0, 1)
	var before, after sim.Cycle
	ns[0].Start(func(env *Env) {
		// A thread sees the clock current only right after a
		// value-returning operation: Compute is posted, so the clock is
		// sampled after a Read on each side of it.
		env.Read(a)
		before = engine.Now()
		env.Compute(500)
		env.Read(a)
		after = engine.Now()
	})
	runAll(t, engine, ns)
	if after-before < 500 {
		t.Fatalf("Compute(500) advanced %d cycles", after-before)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	engine, _, ns := rig(t, 1, true)
	ns[0].Start(func(env *Env) {
		env.Compute(0)
	})
	runAll(t, engine, ns)
	if ns[0].Ops != 0 {
		t.Fatalf("Compute(0) issued an operation")
	}
}

func TestWaitChangeBlocksUntilWrite(t *testing.T) {
	engine, f, ns := rig(t, 2, true)
	a := f.Mem.AllocOn(0, 1)
	var seen uint64
	var wakeAt, writeAt sim.Cycle
	ns[0].Start(func(env *Env) {
		seen = env.WaitChange(a, 0)
		wakeAt = engine.Now()
	})
	b := f.Mem.AllocOn(1, 1)
	ns[1].Start(func(env *Env) {
		env.Compute(2000)
		// The Read is a suspension point, so the clock read after it is
		// the cycle the posted Write below issues at.
		env.Read(b)
		writeAt = engine.Now()
		env.Write(a, 5)
	})
	runAll(t, engine, ns)
	if seen != 5 {
		t.Fatalf("WaitChange returned %d, want 5", seen)
	}
	if writeAt < 2000 {
		t.Fatalf("write issued at %d, before its 2000-cycle Compute ended", writeAt)
	}
	if wakeAt <= writeAt {
		t.Fatalf("woke at %d before the write at %d", wakeAt, writeAt)
	}
}

func TestEnvIDAndP(t *testing.T) {
	engine, _, ns := rig(t, 4, true)
	var ids []mem.NodeID
	var ps []int
	for i := range ns {
		ns[i].Start(func(env *Env) {
			ids = append(ids, env.ID())
			ps = append(ps, env.P)
		})
	}
	runAll(t, engine, ns)
	seen := map[mem.NodeID]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("ids = %v, want 4 distinct", ids)
	}
	for _, p := range ps {
		if p != 4 {
			t.Fatalf("P = %d, want 4", p)
		}
	}
}

func TestIfetchChargesCache(t *testing.T) {
	engine, f, ns := rig(t, 1, false)
	ns[0].Start(func(env *Env) {
		env.SetCode(CodeSpace, 4)
		for i := 0; i < 10; i++ {
			env.Compute(1)
		}
	})
	runAll(t, engine, ns)
	st := f.Cache(0).Cache().Stats
	if st.IMisses != 4 {
		t.Fatalf("IMisses = %d, want 4 (one per code block)", st.IMisses)
	}
	if st.IHits != 6 {
		t.Fatalf("IHits = %d, want 6", st.IHits)
	}
}

func TestSetCodeZeroDisablesIfetch(t *testing.T) {
	engine, f, ns := rig(t, 1, false)
	ns[0].Start(func(env *Env) {
		env.SetCode(CodeSpace, 4)
		env.Compute(1)
		env.SetCode(0, 0)
		for i := 0; i < 5; i++ {
			env.Compute(1)
		}
	})
	runAll(t, engine, ns)
	st := f.Cache(0).Cache().Stats
	if st.IMisses != 1 {
		t.Fatalf("IMisses = %d, want exactly the one before SetCode(0,0)", st.IMisses)
	}
}

func TestEveryOpCostsAtLeastOneCycle(t *testing.T) {
	// A thread doing only cache hits must still advance simulated time,
	// or the event loop would spin at one cycle forever.
	engine, f, ns := rig(t, 1, true)
	a := f.Mem.AllocOn(0, 1)
	const ops = 100
	ns[0].Start(func(env *Env) {
		env.Read(a) // fill
		for i := 0; i < ops; i++ {
			env.Read(a) // pure hits
		}
	})
	runAll(t, engine, ns)
	if engine.Now() < ops {
		t.Fatalf("%d hit reads advanced only %d cycles", ops, engine.Now())
	}
}

func TestLockstepDeterminism(t *testing.T) {
	// Two racing incrementers: the interleaving must be identical across
	// runs (goroutine scheduling must not leak into simulated time).
	run := func() (sim.Cycle, uint64) {
		engine, f, ns := rig(t, 2, true)
		a := f.Mem.AllocOn(0, 1)
		for i := range ns {
			ns[i].Start(func(env *Env) {
				for j := 0; j < 50; j++ {
					env.FetchAdd(a, 1)
				}
			})
		}
		runAll(t, engine, ns)
		return engine.Now(), f.Mem.Read(a)
	}
	t1, _ := run()
	t2, _ := run()
	if t1 != t2 {
		t.Fatalf("racing runs finished at %d and %d; lockstep broken", t1, t2)
	}
}

func TestEnvCheckOutCheckIn(t *testing.T) {
	engine, f, ns := rig(t, 2, true)
	a := f.Mem.AllocOn(0, 1)
	ns[0].Start(func(env *Env) {
		env.CheckOut(a)
		v := env.Read(a)
		env.Write(a, v+5)
		env.CheckIn(a)
	})
	ns[1].Start(func(env *Env) {})
	runAll(t, engine, ns)
	engine.Run(0) // drain the in-flight writeback
	if got := f.Mem.Read(a); got != 5 {
		t.Fatalf("memory after check-in = %d, want 5", got)
	}
	if _, cached := f.Cache(0).HasBlock(mem.BlockOf(a)); cached {
		t.Fatal("copy survived check-in")
	}
}

func TestMultithreadedNodeRunsAllContexts(t *testing.T) {
	engine, f, ns := rig(t, 2, true)
	a := f.Mem.AllocOn(0, 4)
	var seen []int
	ns[0].StartThreads(4, func(env *Env) {
		seen = append(seen, env.Thread())
		env.FetchAdd(a+mem.Addr(env.Thread()), 1)
	})
	ns[1].Start(func(env *Env) {})
	runAll(t, engine, ns)
	if ns[0].Threads() != 4 {
		t.Fatalf("Threads = %d, want 4", ns[0].Threads())
	}
	if len(seen) != 4 {
		t.Fatalf("%d contexts ran, want 4", len(seen))
	}
	distinct := map[int]bool{}
	for _, s := range seen {
		distinct[s] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("context indices %v, want 4 distinct", seen)
	}
}

func TestMultithreadingToleratesLatency(t *testing.T) {
	// The latency-tolerance experiment: node 1's threads stream reads of
	// remote blocks. With several contexts the misses overlap, so the
	// run finishes materially sooner despite context-switch costs.
	runWith := func(threads int) sim.Cycle {
		engine, f, ns := rig(t, 2, true)
		base := f.Mem.AllocOn(0, 4*64)
		ns[0].Start(func(env *Env) {})
		ns[1].StartThreads(threads, func(env *Env) {
			// Each context reads a disjoint stripe of remote blocks.
			for i := 0; i < 16; i++ {
				env.Read(base + mem.Addr((env.Thread()*16+i)*4))
			}
		})
		runAll(t, engine, ns)
		return ns[1].FinishedAt()
	}
	// Equalize total work: 1 thread doing 4 stripes' worth vs 4 threads
	// doing one each is awkward; instead compare per-miss throughput:
	// 4 threads x 16 misses vs 1 thread x 16 misses scaled.
	one := runWith(1)  // 16 misses, serial
	four := runWith(4) // 64 misses, overlapped
	perMissOne := float64(one) / 16
	perMissFour := float64(four) / 64
	if perMissFour > 0.7*perMissOne {
		t.Fatalf("multithreading did not overlap misses: %.1f vs %.1f cycles/miss",
			perMissFour, perMissOne)
	}
}

func TestMultithreadedDeterminism(t *testing.T) {
	run := func() sim.Cycle {
		engine, f, ns := rig(t, 2, true)
		a := f.Mem.AllocOn(0, 1)
		for i := range ns {
			ns[i].StartThreads(3, func(env *Env) {
				for j := 0; j < 10; j++ {
					env.FetchAdd(a, 1)
				}
			})
		}
		runAll(t, engine, ns)
		return engine.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("multithreaded runs differ: %d vs %d", a, b)
	}
}

func TestMultithreadedAtomicity(t *testing.T) {
	engine, f, ns := rig(t, 4, true)
	a := f.Mem.AllocOn(0, 1)
	for i := range ns {
		ns[i].StartThreads(4, func(env *Env) {
			for j := 0; j < 10; j++ {
				env.FetchAdd(a, 1)
			}
		})
	}
	runAll(t, engine, ns)
	engine.Run(0)
	// 4 nodes x 4 threads x 10 increments.
	var got uint64
	done := false
	f.Cache(0).Access(a, proto.Op{Done: func(v uint64) { got = v; done = true }})
	engine.RunUntil(func() bool { return done }, 10_000_000)
	if got != 160 {
		t.Fatalf("counter = %d, want 160 (lost updates across contexts)", got)
	}
}

// TestCloneRefusesThreads pins that a fabric driving threads cannot be
// copied: a thread's continuations live in its coroutine, outside the
// fabric, so Clone must fail with the named error rather than copy half a
// machine.
func TestCloneRefusesThreads(t *testing.T) {
	engine, f, ns := rig(t, 2, false)
	a := f.Mem.AllocOn(1, 1)
	for _, n := range ns {
		n.Start(func(env *Env) { env.Write(a, uint64(env.ID())+1) })
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Clone(nil); !errors.Is(err, proto.ErrNotCopyable) {
			t.Fatalf("after %d steps: Clone error %v, want ErrNotCopyable", i, err)
		}
		engine.Step()
	}
	runAll(t, engine, ns)
}

// BenchmarkThreadHandoff times the thread/engine alternation per loop
// iteration of a 1-node machine with a perfect instruction fetch:
// read-hit is one cache-hit Read, one handoff per operation; compute-read
// is a Compute(1) then a Read, TSP's expand step, where the Compute is
// posted and the pair costs one handoff. Each figure includes the engine
// events the operations fire.
func BenchmarkThreadHandoff(b *testing.B) {
	bodies := []struct {
		name string
		body func(env *Env, a mem.Addr, n int)
	}{
		{"read-hit", func(env *Env, a mem.Addr, n int) {
			for i := 0; i < n; i++ {
				env.Read(a)
			}
		}},
		{"compute-read", func(env *Env, a mem.Addr, n int) {
			for i := 0; i < n; i++ {
				env.Compute(1)
				env.Read(a)
			}
		}},
	}
	for _, bb := range bodies {
		b.Run(bb.name, func(b *testing.B) {
			engine, f, ns := rig(b, 1, true)
			n := ns[0]
			a := f.Mem.AllocOn(0, 1)
			n.Start(func(env *Env) {
				env.Read(a) // the miss that fills the line
				bb.body(env, a, b.N)
			})
			// Run the thread to its first operation before timing, so
			// the coroutine's start is not in the figure.
			engine.Step()
			done := n.Done
			b.ReportAllocs()
			b.ResetTimer()
			if !engine.RunUntil(done, 0) {
				b.Fatal("thread did not finish")
			}
		})
	}
}
