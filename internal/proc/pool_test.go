package proc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"swex/internal/mem"
)

// emptyPool ends every idle thread the pool hands out.
func emptyPool() {
	for {
		h, ok := threadPool.Get().(*threadHandle)
		if !ok {
			return
		}
		runtime.SetFinalizer(h, nil)
		h.stop()
	}
}

// probeRun starts the same two-node workload on a new rig and renders
// what it observed and what the engine saw: the values the threads read,
// their Env views, per-node operation counts and finish cycles, and the
// events fired. Instruction fetch is modeled, so SetCode state left on a
// reused thread would move the cycles. It also returns the Env of every
// thread it ran, which names the thread record.
func probeRun(t *testing.T) (string, []*Env) {
	t.Helper()
	engine, f, ns := rig(t, 2, false)
	a := f.Mem.AllocOn(1, 1)
	var b strings.Builder
	var envs []*Env
	for _, n := range ns {
		n.Start(func(env *Env) {
			envs = append(envs, env)
			fmt.Fprintf(&b, "node %d thread %d of %d, P %d: ", env.ID(), env.Thread(), env.NodeThreads(), env.P)
			env.Write(a+mem.Addr(env.ID()), uint64(env.ID())+10)
			fmt.Fprintf(&b, "read %d, ", env.Read(a+mem.Addr(env.ID())))
			env.Compute(7)
			fmt.Fprintf(&b, "add %d; ", env.FetchAdd(a+2, 1))
			env.Write(a+3, 1) // posted: still queued when the body returns
		})
	}
	runAll(t, engine, ns)
	for _, n := range ns {
		fmt.Fprintf(&b, "n%d(ops=%d mem=%d fin=%d) ", n.ID, n.Ops, n.MemOps, n.FinishedAt())
	}
	fmt.Fprintf(&b, "fired=%d", engine.Fired())
	return b.String(), envs
}

// TestRecycledThreadIsFresh holds a thread taken from the pool to a new
// one: after each kind of run below, the probe's output equals the output
// of a probe whose threads are new, and at least one attempt ran the
// probe on a recycled thread. A stopped thread is never reused. The
// collector is off, so the pool keeps what each run returns; under the
// race detector the pool drops some returns at random, hence the
// attempts.
func TestRecycledThreadIsFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	emptyPool() // so the reference probe runs on new threads
	want, _ := probeRun(t)

	cases := []struct {
		name string
		// run dirties the threads it starts, and returns the Envs of
		// those it finished and of those it stopped.
		run func(t *testing.T) (finished, stopped []*Env)
	}{
		{"setcode-and-posted-queue", func(t *testing.T) (finished, stopped []*Env) {
			engine, f, ns := rig(t, 2, false)
			a := f.Mem.AllocOn(0, 4)
			for _, n := range ns {
				n.Start(func(env *Env) {
					finished = append(finished, env)
					env.SetCode(CodeSpace, 3)
					env.Read(a)
					env.Write(a+1, 5)
					env.Compute(3)
					env.CheckOut(a + 2)
					env.Write(a+2, 6)
				})
			}
			runAll(t, engine, ns)
			return finished, nil
		}},
		{"multi-context", func(t *testing.T) (finished, stopped []*Env) {
			engine, f, ns := rig(t, 2, false)
			a := f.Mem.AllocOn(0, 1)
			for _, n := range ns {
				n.StartThreads(MaxContexts, func(env *Env) {
					finished = append(finished, env)
					env.SetCode(CodeSpace+mem.Addr(env.Thread())*64, 2)
					env.FetchAdd(a, 1)
					env.Compute(2)
				})
			}
			runAll(t, engine, ns)
			return finished, nil
		}},
		{"stopped", func(t *testing.T) (finished, stopped []*Env) {
			engine, f, ns := rig(t, 2, false)
			a := f.Mem.AllocOn(0, 1)
			ns[0].Start(func(env *Env) {
				finished = append(finished, env)
				env.SetCode(CodeSpace, 2)
				env.Read(a)
			})
			unwound := false
			ns[1].Start(func(env *Env) {
				defer func() { unwound = true }()
				stopped = append(stopped, env)
				env.SetCode(CodeSpace, 2)
				env.Write(a, 3)
				env.WaitChange(a, 3) // nobody writes again
			})
			if engine.RunUntil(ns[1].Done, 100_000) {
				t.Fatal("a thread waiting forever finished")
			}
			if !ns[0].Done() {
				t.Fatal("node 0's thread did not finish")
			}
			for _, n := range ns {
				n.Stop()
			}
			if !unwound {
				t.Fatal("the stopped thread's body did not unwind")
			}
			return finished, stopped
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reused := false
			for attempt := 0; attempt < 20 && !reused; attempt++ {
				finished, stopped := c.run(t)
				got, envs := probeRun(t)
				if got != want {
					t.Fatalf("probe after a %s run:\n got %s\nwant %s", c.name, got, want)
				}
				for _, e := range envs {
					for _, s := range stopped {
						if e == s {
							t.Fatalf("a stopped thread ran the probe")
						}
					}
					for _, f := range finished {
						reused = reused || e == f
					}
				}
			}
			if !reused {
				t.Fatal("no attempt ran the probe on a recycled thread")
			}
		})
	}
}

// drainedGoroutines returns runtime.NumGoroutine once the pool is empty
// and the count has held steady across ten short sleeps: two collections
// drop every pooled handle, and the handles' finalizers stop the parked
// coroutines on the finalizer goroutine.
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

// TestPoolDropsIdleCoroutines checks that the pool does not keep idle
// coroutines alive: once collections drop the handles of threads a run
// returned, their parked goroutines end.
func TestPoolDropsIdleCoroutines(t *testing.T) {
	emptyPool() // so the run below builds new threads
	before := drainedGoroutines()
	engine, _, ns := rig(t, 4, true)
	for _, n := range ns {
		n.Start(func(env *Env) { env.Compute(3) })
	}
	runAll(t, engine, ns)
	if after := drainedGoroutines(); after != before {
		t.Fatalf("goroutines: %d before the run, %d after the pool was drained", before, after)
	}
}

// TestLargeMachineThreadsEnd checks that the threads of a fabric that
// started more than poolLimit of them are not pooled: each ends with its
// body, leaving no goroutine behind, and none runs a later body.
func TestLargeMachineThreadsEnd(t *testing.T) {
	emptyPool()
	before := drainedGoroutines()
	engine, _, ns := rig(t, poolLimit/MaxContexts+1, true)
	var finished []*Env
	for _, n := range ns {
		n.StartThreads(MaxContexts, func(env *Env) {
			finished = append(finished, env)
			env.Compute(3)
		})
	}
	runAll(t, engine, ns)
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before a run of %d threads, %d after", before, len(finished), after)
	}
	_, envs := probeRun(t)
	for _, e := range envs {
		for _, f := range finished {
			if e == f {
				t.Fatal("a thread of a machine above the pool limit was reused")
			}
		}
	}
}
