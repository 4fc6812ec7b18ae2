package proc_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/sim"
)

var updateHandoff = flag.Bool("update", false, "rewrite testdata/handoff.golden")

// handoffCase is one machine run whose per-node operation counts, finish
// cycles, run time, fired event count and error text the golden pins.
type handoffCase struct {
	name  string
	cfg   machine.Config
	limit sim.Cycle
	setup func(m *machine.Machine) func(*proc.Env)
}

// handoffCases mix operations that return no value (Write, Compute,
// CheckIn, CheckOut) with ones that do, in the patterns where the
// thread/engine handoff could change what the engine sees: long runs of
// value-free operations, SetCode between them, a thread returning right
// after them, several contexts per node, and a run cut by its cycle limit.
func handoffCases() []handoffCase {
	cfg := func(spec proto.Spec) machine.Config {
		return machine.Config{Nodes: 4, Spec: spec, CacheLines: 64}
	}
	// shared allocates n blocks homed round-robin across the nodes.
	shared := func(m *machine.Machine, n int) []mem.Addr {
		as := make([]mem.Addr, n)
		for i := range as {
			as[i] = m.Mem.AllocOn(mem.NodeID(i%m.Cfg.Nodes), mem.WordsPerBlock)
		}
		return as
	}
	return []handoffCase{
		{"write-runs", cfg(proto.LimitLESS(1)), 0, func(m *machine.Machine) func(*proc.Env) {
			as := shared(m, 5)
			return func(env *proc.Env) {
				id := uint64(env.ID())
				env.SetCode(proc.CodeSpace, 4)
				for round := 0; round < 3; round++ {
					for i := 0; i < 9; i++ {
						env.Write(as[i%len(as)]+mem.Addr(id), id*100+uint64(i))
					}
					env.Read(as[(int(id)+round)%len(as)])
				}
				if id == 0 {
					env.WaitChange(as[4]+3, 0)
				}
			}
		}},
		{"setcode-between-posts", cfg(proto.FullMap()), 0, func(m *machine.Machine) func(*proc.Env) {
			as := shared(m, 3)
			return func(env *proc.Env) {
				id := mem.Addr(env.ID())
				env.SetCode(proc.CodeSpace, 2)
				env.Write(as[0]+id, 1)
				env.SetCode(proc.CodeSpace+64*mem.WordsPerBlock, 3)
				env.Write(as[1]+id, 2)
				env.Compute(7)
				env.SetCode(0, 0)
				env.Write(as[2]+id, 3)
				env.SetCode(proc.CodeSpace+(16+id)*mem.WordsPerBlock, 1)
				env.Compute(2)
				env.Read(as[0])
				env.SetCode(proc.CodeSpace, 5)
				env.Write(as[1]+id, 4)
				env.Read(as[2])
			}
		}},
		{"checkin-checkout", cfg(proto.LimitLESS(2)), 0, func(m *machine.Machine) func(*proc.Env) {
			as := shared(m, 4)
			return func(env *proc.Env) {
				id := int(env.ID())
				env.SetCode(proc.CodeSpace, 3)
				for i := 0; i < 4; i++ {
					a := as[(id+i)%len(as)]
					env.CheckOut(a)
					env.Write(a, uint64(id))
					env.CheckIn(a)
					env.Compute(3)
				}
				env.Read(as[id])
				env.CheckIn(as[id])
			}
		}},
		{"compute-zero", cfg(proto.FullMap()), 0, func(m *machine.Machine) func(*proc.Env) {
			as := shared(m, 2)
			return func(env *proc.Env) {
				id := mem.Addr(env.ID())
				env.Write(as[0]+id, 1)
				env.Compute(0)
				env.Write(as[1]+id, 2)
				env.Compute(0)
				env.Compute(0)
				env.Read(as[0])
				env.Compute(0)
			}
		}},
		{"two-threads", func() machine.Config {
			c := cfg(proto.LimitLESS(1))
			c.ThreadsPerNode = 2
			return c
		}(), 0, func(m *machine.Machine) func(*proc.Env) {
			as := shared(m, 4)
			counter := m.Mem.AllocOn(0, mem.WordsPerBlock)
			return func(env *proc.Env) {
				slot := mem.Addr(int(env.ID())*env.NodeThreads() + env.Thread())
				env.SetCode(proc.CodeSpace+mem.Addr(env.Thread())*8*mem.WordsPerBlock, 2)
				for i := 0; i < 3; i++ {
					env.Write(as[i]+slot%mem.WordsPerBlock, uint64(i))
					env.Compute(5)
					env.FetchAdd(counter, 1)
					env.Write(as[3], uint64(slot))
				}
				env.Read(as[int(slot)%len(as)])
			}
		}},
		{"return-after-post", cfg(proto.LimitLESS(2)), 0, func(m *machine.Machine) func(*proc.Env) {
			as := shared(m, 2)
			return func(env *proc.Env) {
				id := mem.Addr(env.ID())
				if id%2 == 0 {
					env.Read(as[1])
				}
				env.Write(as[0]+id, 9)
				env.Compute(11)
				if id == 3 {
					env.CheckIn(as[0])
				}
			}
		}},
		{"cycle-limit", cfg(proto.LimitLESS(1)), 1500, func(m *machine.Machine) func(*proc.Env) {
			as := shared(m, 2)
			return func(env *proc.Env) {
				id := mem.Addr(env.ID())
				for i := uint64(0); ; i++ {
					env.Write(as[0]+id, i)
					env.Compute(3)
					env.Write(as[1]+id, i)
				}
			}
		}},
	}
}

// runHandoffCase runs one case and renders what the golden pins.
func runHandoffCase(t *testing.T, c handoffCase) string {
	t.Helper()
	m, err := machine.New(c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	res, err := m.Run(c.setup(m), c.limit)
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", c.name)
	for _, n := range m.Nodes {
		fmt.Fprintf(&b, " n%d(ops=%d fin=%d)", n.ID, n.Ops, n.FinishedAt())
	}
	fmt.Fprintf(&b, " time=%d fired=%d err=%v\n", res.Time, m.Engine.Fired(), err)
	return b.String()
}

// TestHandoffGolden pins, byte for byte, what the engine sees of the
// threads' operations: the handoff between thread and engine must not
// move one operation, event or cycle. Regenerate with -update only for an
// intended change to the processor model.
func TestHandoffGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range handoffCases() {
		b.WriteString(runHandoffCase(t, c))
	}
	const path = "testdata/handoff.golden"
	if *updateHandoff {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("handoff golden mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPostedLoopHitsCycleLimit pins that a thread issuing only posted
// operations still hands control back to the simulator: it ends at the
// machine's cycle limit with the machine's error, and stopping it unwinds
// its body, running its deferred calls.
func TestPostedLoopHitsCycleLimit(t *testing.T) {
	m := machine.MustNew(machine.Config{Nodes: 1, Spec: proto.FullMap(), PerfectIfetch: true})
	unwound := false
	_, err := m.Run(func(env *proc.Env) {
		defer func() { unwound = true }()
		for {
			env.Compute(1)
		}
	}, 1000)
	const want = "machine: run did not complete at cycle 1000 (stuck nodes: [0], pending events: 1)"
	if err == nil || err.Error() != want {
		t.Fatalf("Run error = %v, want %q", err, want)
	}
	if !unwound {
		t.Fatal("the stopped thread's body did not unwind")
	}
	if m.Engine.Now() != 1000 {
		t.Fatalf("stopped at cycle %d, want the limit 1000", m.Engine.Now())
	}
}
