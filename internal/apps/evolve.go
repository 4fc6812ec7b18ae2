package apps

import (
	"fmt"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/shm"
	"swex/internal/sim"
)

// EvolveParams configures the genome-evolution application (paper Section
// 6): hill-climbing traversal of a hypercube fitness landscape, searching
// for paths from initial conditions to local fitness maxima.
type EvolveParams struct {
	// Dimensions is the hypercube dimension (paper: 12 -> 4096 genomes).
	Dimensions int
	// TotalWalks is the machine-wide number of hill-climbs, divided
	// among the nodes (the problem size is independent of P).
	TotalWalks int
	// StepCycles models the fitness comparison work per neighbor.
	StepCycles sim.Cycle
	// Seed drives the deterministic fitness landscape and start points.
	Seed uint64
}

// DefaultEvolve keeps the paper's 12 dimensions.
func DefaultEvolve() EvolveParams {
	return EvolveParams{Dimensions: 12, TotalWalks: 2048, StepCycles: 40, Seed: 90125}
}

// evolveFitness is the deterministic fitness of a genome: a hash of its
// bits, giving a rugged landscape with many local maxima.
func evolveFitness(genome uint64, seed uint64) uint64 {
	x := genome*0x9E3779B97F4A7C15 + seed
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x & 0xFFFFFF
}

// Evolve builds the hypercube-traversal application. The fitness table is
// distributed block-by-block across the machine; most genomes are visited
// by one or two walks (small worker sets) while popular ridges and the
// global accumulators are shared by every node — producing the worker-set
// histogram of Figure 6, whose large sets "seriously challenge a
// software-extended system".
func Evolve(p EvolveParams) Program {
	return Program{
		Name:     "EVOLVE",
		Language: "Mul-T",
		Size:     fmt.Sprintf("%d dimensions", p.Dimensions),
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			genomes := 1 << uint(p.Dimensions)
			bar := shm.NewTreeBarrier(m.Mem, P)
			// Global accumulators: maxima found and steps taken —
			// globally shared, frequently written.
			maxima := m.Mem.AllocOn(0, 1)
			steps := m.Mem.AllocOn(0, 1)

			// The fitness table, distributed round-robin by block.
			table := make([]mem.Addr, genomes)
			words := mem.WordsPerBlock
			for b := 0; b < genomes/words; b++ {
				base := m.Mem.AllocOn(mem.NodeID(b%P), words)
				for w := 0; w < words; w++ {
					table[b*words+w] = base + mem.Addr(w)
				}
			}
			// Per-genome visit counters, likewise distributed.
			visits := make([]mem.Addr, genomes)
			for b := 0; b < genomes/words; b++ {
				base := m.Mem.AllocOn(mem.NodeID((b+P/2)%P), words)
				for w := 0; w < words; w++ {
					visits[b*words+w] = base + mem.Addr(w)
				}
			}

			thread := func(env *proc.Env) {
				id := int(env.ID())
				env.SetCode(proc.CodeSpace+3400*mem.WordsPerBlock, 10)

				// Initialization: each node fills its share of the
				// fitness table.
				for g := id; g < genomes; g += P {
					env.Write(table[g], evolveFitness(uint64(g), p.Seed))
				}
				bar.Wait(env)

				rnd := sim.NewRand(p.Seed ^ uint64(id)*0x5851F42D4C957F2D)
				var localSteps, localMaxima uint64
				walks := p.TotalWalks / P
				if id < p.TotalWalks%P {
					walks++
				}
				for walk := 0; walk < walks; walk++ {
					g := uint64(rnd.Intn(genomes))
					fit := env.Read(table[g])
					for {
						env.FetchAdd(visits[g], 1)
						// Examine all neighbors; move to the best
						// strictly-better one.
						best, bestFit := g, fit
						for d := 0; d < p.Dimensions; d++ {
							ng := g ^ (1 << uint(d))
							nf := env.Read(table[ng])
							env.Compute(p.StepCycles)
							if nf > bestFit {
								best, bestFit = ng, nf
							}
						}
						localSteps++
						if best == g {
							localMaxima++ // local maximum
							break
						}
						g, fit = best, bestFit
					}
				}
				env.FetchAdd(steps, localSteps)
				env.FetchAdd(maxima, localMaxima)
				bar.Wait(env)
			}
			tableBlocks := make([]mem.Addr, 0, genomes/words)
			for g := 0; g < genomes; g += words {
				tableBlocks = append(tableBlocks, table[g])
			}
			return Instance{
				Thread: thread,
				Probes: map[string]mem.Addr{
					"maxima": maxima,
					"steps":  steps,
				},
				// The fitness table, for experiments that reconfigure
				// its coherence type block by block.
				Regions: map[string][]mem.Addr{"fitness-table": tableBlocks},
			}
		},
	}
}
