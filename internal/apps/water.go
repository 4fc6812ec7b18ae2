package apps

import (
	"fmt"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/shm"
	"swex/internal/sim"
)

// WaterParams configures the molecular-dynamics application from the
// SPLASH suite (paper Section 6): N-body simulation of water molecules
// with O(N^2) pairwise force evaluation. The paper runs 64 molecules and
// uses Alewife's parallel C library for barriers and reductions.
type WaterParams struct {
	// Molecules is the molecule count (paper: 64).
	Molecules int
	// Steps is the number of time steps.
	Steps int
	// PairCycles models the force arithmetic per molecule pair.
	PairCycles sim.Cycle
	// Seed drives the initial configuration.
	Seed uint64
}

// DefaultWater keeps the paper's 64 molecules.
func DefaultWater() WaterParams {
	return WaterParams{Molecules: 64, Steps: 3, PairCycles: 600, Seed: 2718}
}

// Water builds the molecular dynamics application. Each molecule's state
// block is homed on its owner and read by every node during the force
// phase (wide read sharing), then rewritten by its owner (invalidating all
// readers) — the pattern that lets even the software-only directory reach
// about 70% of full-map performance, since reads dominate writes by a
// factor of N.
func Water(p WaterParams) Program {
	return Program{
		Name:     "WATER",
		Language: "C",
		Size:     fmt.Sprintf("%d molecules", p.Molecules),
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			bar := shm.NewTreeBarrier(m.Mem, P)
			energy := shm.NewReducer(m.Mem, mem.NodeID(1%P))

			// One block per molecule: packed position word (+ a
			// velocity word), homed round-robin.
			mol := make([]mem.Addr, p.Molecules)
			for i := range mol {
				mol[i] = m.Mem.AllocOn(mem.NodeID(i%P), mem.WordsPerBlock)
			}

			const space = 1 << 20
			pack := func(x, y, z uint64) uint64 {
				return x | y<<21 | z<<42
			}
			unpack := func(v uint64) (x, y, z uint64) {
				const mask = (1 << 21) - 1
				return v & mask, v >> 21 & mask, v >> 42 & mask
			}

			thread := func(env *proc.Env) {
				id := int(env.ID())
				env.SetCode(proc.CodeSpace+3600*mem.WordsPerBlock, 16)
				rnd := sim.NewRand(p.Seed + uint64(id)*7919)

				// Initialize owned molecules.
				for i := id; i < p.Molecules; i += P {
					env.Write(mol[i], pack(uint64(rnd.Intn(space)),
						uint64(rnd.Intn(space)), uint64(rnd.Intn(space))))
				}
				bar.Wait(env)

				for step := 0; step < p.Steps; step++ {
					var localEnergy uint64
					// Force phase: for each owned molecule, accumulate
					// interactions with every other molecule.
					for i := id; i < p.Molecules; i += P {
						pos := env.Read(mol[i])
						xi, yi, zi := unpack(pos)
						var fx, fy, fz uint64
						for k := 1; k < p.Molecules; k++ {
							// Stagger the interaction order by owner so
							// the machine does not stampede molecule 0's
							// home in lockstep.
							j := (i + k) % p.Molecules
							pj := env.Read(mol[j])
							xj, yj, zj := unpack(pj)
							env.Compute(p.PairCycles)
							// A softened inverse-square-ish kick; the
							// arithmetic is a stand-in for the O(N^2)
							// work, not a faithful potential.
							fx += (xj - xi) >> 12 & 0xFF
							fy += (yj - yi) >> 12 & 0xFF
							fz += (zj - zi) >> 12 & 0xFF
							localEnergy += (fx + fy + fz) & 0xFFF
						}
						// Integrate: move the molecule (deferred to the
						// update phase via a local stash would need
						// another array; writing here after the barrier
						// below keeps reads and writes in distinct
						// phases).
						newPos := pack((xi+fx)%space, (yi+fy)%space, (zi+fz)%space)
						env.Write(mol[i], newPos)
					}
					energy.Add(env, localEnergy&0xFFFF)
					bar.Wait(env)
				}
			}
			return Instance{Thread: thread, Probes: map[string]mem.Addr{
				"energy": energy.Addr(),
				"mol0":   mol[0],
			}}
		},
	}
}
