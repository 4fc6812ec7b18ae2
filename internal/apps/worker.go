package apps

import (
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/shm"
)

// WorkerParams configures the WORKER synthetic benchmark (paper Section
// 5): a shared-memory stress test whose data structure creates memory
// blocks with an exact worker-set size.
type WorkerParams struct {
	// SetSize is the worker-set size: the number of nodes that read each
	// block every iteration. It is capped at P-1 so the writer is always
	// distinct from the readers and every write invalidates exactly
	// SetSize copies.
	SetSize int
	// Iters is the number of read/barrier/write/barrier iterations.
	Iters int
	// SlotsPerNode is how many worker-set blocks each node owns (and
	// writes); more slots amortize the per-iteration barriers so the
	// measured behavior is the worker-set traffic itself. Zero selects
	// the default of 8.
	SlotsPerNode int
	// CICO adds check-in annotations: every reader relinquishes its
	// copy after the read phase, so the writer finds no pointers to
	// invalidate — the Check-In/Check-Out programming style of the
	// cooperative shared memory work the paper compares against.
	CICO bool
}

// Worker builds the benchmark. Block i is homed on and written by node i;
// its readers are the SetSize nodes following i in ring order. Every read
// misses (the previous write invalidated it) and every write sends one
// invalidation per reader, giving the completely deterministic access
// pattern the paper uses as a controlled experiment. It runs one context
// per node: on a multithreaded machine the further contexts return at
// once.
func Worker(p WorkerParams) Program {
	return Program{
		Name: "WORKER",
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			k := p.SetSize
			if k > P-1 {
				k = P - 1
			}
			if k < 0 {
				k = 0
			}
			S := p.SlotsPerNode
			if S <= 0 {
				S = 8
			}
			// Stagger each node's slots within its segment so they do
			// not all alias the same direct-mapped cache set.
			slots := make([][]mem.Addr, P)
			for n := 0; n < P; n++ {
				m.Mem.AllocOn(mem.NodeID(n), (1+n%61)*mem.WordsPerBlock)
				slots[n] = make([]mem.Addr, S)
				for s := 0; s < S; s++ {
					slots[n][s] = m.Mem.AllocOn(mem.NodeID(n), mem.WordsPerBlock)
				}
			}
			// A fan-in-2 tree barrier keeps every synchronization word's
			// worker set within the hardware pointers, so the measured
			// worker sets are exactly the benchmark's.
			bar := shm.NewTreeBarrierArity(m.Mem, P, 2)
			thread := func(env *proc.Env) {
				if env.Thread() > 0 {
					// The access pattern is one context per node; the
					// barrier counts nodes, so further contexts idle.
					return
				}
				id := int(env.ID())
				env.SetCode(proc.CodeSpace+3000*mem.WordsPerBlock, 8)
				// Initialization phase: each node writes its blocks.
				for s := 0; s < S; s++ {
					env.Write(slots[id][s], uint64(id))
				}
				bar.Wait(env)
				for it := 0; it < p.Iters; it++ {
					// Read phase: node j reads the slots whose reader
					// sets it belongs to (writers j-1..j-k).
					for s := 0; s < S; s++ {
						for d := 1; d <= k; d++ {
							w := ((id-d)%P + P) % P
							env.Read(slots[w][s])
							if p.CICO {
								env.CheckIn(slots[w][s])
							}
						}
					}
					bar.Wait(env)
					// Write phase: each node writes its own blocks,
					// invalidating their k readers.
					for s := 0; s < S; s++ {
						env.Write(slots[id][s], uint64(it))
					}
					bar.Wait(env)
				}
			}
			return Instance{Thread: thread, Probes: map[string]mem.Addr{"slot0": slots[0][0]}}
		},
	}
}
