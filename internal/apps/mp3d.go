package apps

import (
	"fmt"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/shm"
	"swex/internal/sim"
)

// MP3DParams configures the rarefied-fluid-flow application from the
// SPLASH suite (paper Section 6): particles streaming through a
// discretized wind tunnel, with per-cell state updated by whichever node's
// particles occupy the cell. The paper runs 10,000 particles with locking
// off; MP3D is "notorious for exhibiting low speedups" because the cell
// state is written by many nodes with little locality.
type MP3DParams struct {
	// Particles is the particle count (paper: 10,000; scaled here).
	Particles int
	// CellsPerSide gives a CellsPerSide^3 wind-tunnel discretization.
	CellsPerSide int
	// Steps is the number of simulated time steps.
	Steps int
	// MoveCycles models the per-particle arithmetic each step.
	MoveCycles sim.Cycle
	// Seed drives initial particle placement.
	Seed uint64
}

// DefaultMP3D scales the paper's run down to 2048 particles in an 8x8x8
// tunnel.
func DefaultMP3D() MP3DParams {
	return MP3DParams{Particles: 4096, CellsPerSide: 8, Steps: 3, MoveCycles: 70, Seed: 3141}
}

// MP3D builds the particle-in-cell application. Particle records are homed
// on their owning node; cell records are distributed round-robin. Each
// step every node moves its particles and updates the occupied cells'
// counters and momenta — writes scattered across the whole cell array,
// the access pattern that makes the software-only directory collapse to
// ~11% of full-map in the paper.
func MP3D(p MP3DParams) Program {
	return Program{
		Name:     "MP3D",
		Language: "C",
		Size:     thousands(p.Particles) + " particles",
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			cells := p.CellsPerSide * p.CellsPerSide * p.CellsPerSide
			bar := shm.NewTreeBarrier(m.Mem, P)

			// Cell records: one block each (count word + momentum word),
			// distributed round-robin.
			cellAddr := make([]mem.Addr, cells)
			for c := 0; c < cells; c++ {
				cellAddr[c] = m.Mem.AllocOn(mem.NodeID(c%P), mem.WordsPerBlock)
			}

			// Particle records: position and velocity packed into two
			// words, homed on the owner.
			perNode := (p.Particles + P - 1) / P
			partBase := make([]mem.Addr, P)
			for n := 0; n < P; n++ {
				partBase[n] = m.Mem.AllocOn(mem.NodeID(n), perNode*2)
			}

			side := uint64(p.CellsPerSide)
			space := side * 1024 // fixed-point coordinate space per axis

			thread := func(env *proc.Env) {
				if env.Thread() > 0 {
					// The program runs one context per node; the barrier and the
					// particle partition count nodes, so further contexts idle.
					return
				}
				id := int(env.ID())
				env.SetCode(proc.CodeSpace+3500*mem.WordsPerBlock, 12)
				mine := perNode
				if id == P-1 {
					mine = p.Particles - perNode*(P-1)
					if mine < 0 {
						mine = 0
					}
				}

				rnd := sim.NewRand(p.Seed ^ uint64(id)*0x9E3779B97F4A7C15)
				pack := func(x, y, z uint64) uint64 {
					return x | y<<21 | z<<42
				}
				unpack := func(v uint64) (x, y, z uint64) {
					const mask = (1 << 21) - 1
					return v & mask, v >> 21 & mask, v >> 42 & mask
				}

				// Initialize owned particles: random position, rightward
				// bias in velocity (the wind).
				for i := 0; i < mine; i++ {
					pos := pack(uint64(rnd.Intn(int(space))),
						uint64(rnd.Intn(int(space))), uint64(rnd.Intn(int(space))))
					vel := pack(uint64(200+rnd.Intn(100)),
						uint64(rnd.Intn(100)), uint64(rnd.Intn(100)))
					env.Write(partBase[id]+mem.Addr(2*i), pos)
					env.Write(partBase[id]+mem.Addr(2*i+1), vel)
				}
				bar.Wait(env)

				cellOf := func(x, y, z uint64) int {
					cx, cy, cz := x/1024, y/1024, z/1024
					return int(cx + cy*side + cz*side*side)
				}

				for step := 0; step < p.Steps; step++ {
					for i := 0; i < mine; i++ {
						pa := partBase[id] + mem.Addr(2*i)
						pos := env.Read(pa)
						vel := env.Read(pa + 1)
						x, y, z := unpack(pos)
						vx, vy, vz := unpack(vel)
						env.Compute(p.MoveCycles)
						x = (x + vx) % space
						y = (y + vy) % space
						z = (z + vz) % space
						env.Write(pa, pack(x, y, z))
						// Update the occupied cell: count and momentum.
						c := cellOf(x, y, z)
						env.FetchAdd(cellAddr[c], 1)
						env.FetchAdd(cellAddr[c]+1, vx)
						// Collision model: the cell's population bends
						// the particle's transverse velocity.
						count := env.Read(cellAddr[c])
						if count%7 == 3 {
							env.Write(pa+1, pack(vx, vz, vy))
						}
					}
					bar.Wait(env)
				}
			}
			probes := map[string]mem.Addr{"cell0": cellAddr[0]}
			for i, a := range cellAddr {
				if i < 8 {
					probes[fmt.Sprintf("cell%d", i)] = a
				}
			}
			return Instance{Thread: thread, Probes: probes}
		},
	}
}
