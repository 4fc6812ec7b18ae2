package apps

import (
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/shm"
)

// HomeShare is the local-bit ablation's workload: node i owns one block
// whose readers are i itself plus its five ring successors, and i rewrites
// the block every iteration. The home's own read is the straw that
// overflows a five-pointer directory when the local bit is absent.
func HomeShare() Program {
	return Program{
		Name: "home-share",
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			slots := m.Mem.AllocStriped(1)
			bar := shm.NewTreeBarrierArity(m.Mem, P, 2)
			thread := func(env *proc.Env) {
				id := int(env.ID())
				for it := 0; it < 8; it++ {
					env.Read(slots[id]) // the home's own read
					for d := 1; d <= 5; d++ {
						env.Read(slots[(id+d)%P])
					}
					bar.Wait(env)
					env.Write(slots[id], uint64(it))
					bar.Wait(env)
				}
			}
			return Instance{Thread: thread}
		},
	}
}

// TokenRing is the migratory-data ablation's workload: a token record
// passes around the machine laps times, and each node in turn reads it,
// computes, and writes it back — the canonical migratory pattern.
func TokenRing(laps int) Program {
	return Program{
		Name: "token-ring",
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			token := m.Mem.AllocOn(0, mem.WordsPerBlock)
			turn := m.Mem.AllocOn(0, mem.WordsPerBlock)
			thread := func(env *proc.Env) {
				id := uint64(env.ID())
				for lap := 0; lap < laps; lap++ {
					myTurn := uint64(lap)*uint64(P) + id
					for {
						cur := env.Read(turn)
						if cur == myTurn {
							break
						}
						env.WaitChange(turn, cur)
					}
					v := env.Read(token) // migratory read ...
					env.Compute(200)
					env.Write(token, v+1) // ... then write by the same node
					env.Write(turn, myTurn+1)
				}
			}
			return Instance{Thread: thread, Probes: map[string]mem.Addr{"token": token}}
		},
	}
}

// MissStream is the multithreading ablation's workload: every hardware
// context (Config.ThreadsPerNode of them per node) streams reads of
// blocksPerThread distinct blocks homed on the next node over — pure
// latency-bound work.
func MissStream(blocksPerThread int) Program {
	return Program{
		Name: "miss-stream",
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			total := m.Cfg.Threads() * blocksPerThread
			bases := make([]mem.Addr, P)
			for n := 0; n < P; n++ {
				bases[n] = m.Mem.AllocOn(mem.NodeID(n), total*mem.WordsPerBlock)
			}
			thread := func(env *proc.Env) {
				victim := (int(env.ID()) + 1) % P
				for i := 0; i < blocksPerThread; i++ {
					idx := env.Thread()*blocksPerThread + i
					env.Read(bases[victim] + mem.Addr(idx*mem.WordsPerBlock))
				}
			}
			return Instance{Thread: thread}
		},
	}
}
