package shm

import (
	"fmt"
	"testing"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/proto"
)

func run(t *testing.T, nodes int, spec proto.Spec, setup func(m *machine.Machine) func(*proc.Env)) *machine.Machine {
	t.Helper()
	m := machine.MustNew(machine.DefaultConfig(nodes, spec))
	program := setup(m)
	if _, err := m.Run(program, 200_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// readWord reads a word on a finished machine for verification.
func readWord(t *testing.T, m *machine.Machine, a mem.Addr) uint64 {
	t.Helper()
	var got uint64
	done := false
	m.Fabric.Cache(0).Access(a, proto.Op{Done: func(v uint64) { got = v; done = true }})
	if !m.Engine.RunUntil(func() bool { return done }, 10_000_000) {
		t.Fatal("verification read did not complete")
	}
	return got
}

func TestBarrierNoEarlyPass(t *testing.T) {
	// Every node increments a pre-barrier counter, crosses the barrier,
	// and logs the counter value it observes afterwards: all P arrivals
	// must be visible to every node. The observation log replaces the
	// older ad-hoc per-node violation counters and pins the outcome with
	// a deterministic rendering.
	const P = 8
	log := NewObsLog(P, 1)
	m := run(t, P, proto.FullMap(), func(m *machine.Machine) func(*proc.Env) {
		bar := NewTreeBarrier(m.Mem, P)
		pre := m.Mem.AllocOn(1, 1)
		return func(env *proc.Env) {
			env.FetchAdd(pre, 1)
			bar.Wait(env)
			log.Observe(env, pre)
		}
	})
	want := ""
	for n := 0; n < P; n++ {
		want += fmt.Sprintf("t%d: %d\n", n, P)
	}
	if got := log.String(); got != want {
		t.Fatalf("post-barrier observations:\n%s\nwant every node to see all %d arrivals:\n%s", got, P, want)
	}
	_ = m
}

func TestBarrierReusable(t *testing.T) {
	// Fan-in two gives four participants a two-level tree, so every
	// round also climbs past the first group.
	const P = 4
	const rounds = 5
	var violations int
	run(t, P, proto.LimitLESS(2), func(m *machine.Machine) func(*proc.Env) {
		bar := NewTreeBarrierArity(m.Mem, P, 2)
		phase := m.Mem.AllocOn(1, rounds)
		return func(env *proc.Env) {
			for r := 0; r < rounds; r++ {
				env.FetchAdd(phase+mem.Addr(r), 1)
				bar.Wait(env)
				if env.Read(phase+mem.Addr(r)) != P {
					violations++
				}
				bar.Wait(env)
			}
		}
	})
	if violations != 0 {
		t.Fatalf("%d barrier-phase violations across rounds", violations)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// A non-atomic read-modify-write sequence under the lock must not
	// lose updates.
	const P = 8
	const iters = 10
	var mm *machine.Machine
	var cell mem.Addr
	mm = run(t, P, proto.FullMap(), func(m *machine.Machine) func(*proc.Env) {
		lock := NewLock(m.Mem, 0)
		cell = m.Mem.AllocOn(1, 1)
		return func(env *proc.Env) {
			for i := 0; i < iters; i++ {
				lock.Acquire(env)
				v := env.Read(cell)
				env.Compute(3) // widen the race window
				env.Write(cell, v+1)
				lock.Release(env)
			}
		}
	})
	if got := readWord(t, mm, cell); got != P*iters {
		t.Fatalf("locked counter = %d, want %d (lost updates)", got, P*iters)
	}
}

func TestLockMutualExclusionSoftwareOnly(t *testing.T) {
	const P = 4
	const iters = 5
	var mm *machine.Machine
	var cell mem.Addr
	mm = run(t, P, proto.SoftwareOnly(), func(m *machine.Machine) func(*proc.Env) {
		lock := NewLock(m.Mem, 0)
		cell = m.Mem.AllocOn(1, 1)
		return func(env *proc.Env) {
			for i := 0; i < iters; i++ {
				lock.Acquire(env)
				v := env.Read(cell)
				env.Write(cell, v+1)
				lock.Release(env)
			}
		}
	})
	if got := readWord(t, mm, cell); got != P*iters {
		t.Fatalf("locked counter = %d, want %d", got, P*iters)
	}
}

func TestReducer(t *testing.T) {
	const P = 8
	var mm *machine.Machine
	var red *Reducer
	mm = run(t, P, proto.LimitLESS(5), func(m *machine.Machine) func(*proc.Env) {
		red = NewReducer(m.Mem, 0)
		return func(env *proc.Env) {
			red.Add(env, uint64(env.ID())+1)
		}
	})
	// sum 1..8 = 36
	if got := readWord(t, mm, red.word); got != 36 {
		t.Fatalf("reduction = %d, want 36", got)
	}
}

func TestTaskQueuePushPop(t *testing.T) {
	const P = 4
	var mm *machine.Machine
	var sum mem.Addr
	mm = run(t, P, proto.FullMap(), func(m *machine.Machine) func(*proc.Env) {
		q := NewTaskQueue(m.Mem, P, 16)
		sum = m.Mem.AllocOn(0, 1)
		return func(env *proc.Env) {
			id := env.ID()
			// Each node pushes 5 tasks locally, then drains its queue.
			for i := 0; i < 5; i++ {
				if !q.Push(env, id, uint64(i)+1) {
					t.Error("push failed on empty queue")
				}
			}
			for {
				v, ok := q.Pop(env, id)
				if !ok {
					break
				}
				env.FetchAdd(sum, v)
			}
		}
	})
	// Each node contributes 1+2+3+4+5 = 15.
	if got := readWord(t, mm, sum); got != 15*P {
		t.Fatalf("task sum = %d, want %d", got, 15*P)
	}
}

func TestTaskQueueStealing(t *testing.T) {
	const P = 4
	var mm *machine.Machine
	var sum mem.Addr
	var elsewhere int // tasks run on nodes other than the producer
	mm = run(t, P, proto.LimitLESS(2), func(m *machine.Machine) func(*proc.Env) {
		q := NewTaskQueue(m.Mem, P, 64)
		term := NewDistTermination(m.Mem, P)
		sum = m.Mem.AllocOn(1, 1)
		return func(env *proc.Env) {
			id := env.ID()
			if id == 0 {
				// Node 0 produces all the work.
				term.Register(env, 20)
				for i := 0; i < 20; i++ {
					q.Push(env, 0, uint64(i)+1)
				}
			}
			for attempt := 0; !term.Quiesced(env); {
				v, ok := q.Pop(env, id)
				if !ok {
					v, ok = q.StealBatch(env, id, attempt, 4)
					attempt++
				}
				if !ok {
					env.Compute(20)
					continue
				}
				if id != 0 {
					elsewhere++
				}
				env.FetchAdd(sum, v)
				term.Complete(env)
			}
		}
	})
	// sum 1..20 = 210
	if got := readWord(t, mm, sum); got != 210 {
		t.Fatalf("stolen task sum = %d, want 210", got)
	}
	if elsewhere == 0 {
		t.Fatal("no task was stolen: node 0 ran all 20")
	}
}

func TestTaskQueueFullRejects(t *testing.T) {
	run(t, 2, proto.FullMap(), func(m *machine.Machine) func(*proc.Env) {
		q := NewTaskQueue(m.Mem, 2, 2)
		return func(env *proc.Env) {
			if env.ID() != 0 {
				return
			}
			if !q.Push(env, 0, 1) || !q.Push(env, 0, 2) {
				t.Error("pushes below capacity failed")
			}
			if q.Push(env, 0, 3) {
				t.Error("push beyond capacity succeeded")
			}
			if _, ok := q.Pop(env, 1); ok {
				t.Error("pop from empty queue succeeded")
			}
		}
	})
}

func TestTerminationCounts(t *testing.T) {
	const P = 4
	run(t, P, proto.FullMap(), func(m *machine.Machine) func(*proc.Env) {
		term := NewDistTermination(m.Mem, P)
		bar := NewTreeBarrier(m.Mem, P)
		return func(env *proc.Env) {
			term.Register(env, 1)
			bar.Wait(env)
			if term.Quiesced(env) {
				t.Error("termination quiesced with every task registered and none completed")
			}
			bar.Wait(env)
			term.Complete(env)
			bar.Wait(env)
			if !term.Quiesced(env) {
				t.Error("termination not quiesced after all completions")
			}
			if env.ID() == 0 && !term.Detect(env) {
				t.Error("detector missed quiescence")
			}
			bar.Wait(env)
			if !term.Done(env) {
				t.Error("done flag not seen after detection")
			}
		}
	})
}
