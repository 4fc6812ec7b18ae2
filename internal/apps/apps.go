// Package apps contains the paper's workloads: the WORKER synthetic
// benchmark (Section 5) and scaled-down analogs of the six applications of
// Section 6 (TSP, AQ, SMGRID, EVOLVE, MP3D, WATER).
//
// Every application is a function from a machine to a per-thread program.
// Problem sizes are reduced so that cycle-level simulation of 64- and
// 256-node machines stays tractable; the reproduction targets are the
// paper's qualitative results — the ordering and rough ratios of the
// protocol spectrum — not the absolute speedups of the original problem
// sizes. Each thread also declares its instruction footprint through
// Env.SetCode, so instruction fetches contend with shared data in the
// combined direct-mapped cache exactly as they did on Alewife (the effect
// behind the TSP case study).
package apps

import (
	"fmt"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/shm"
	"swex/internal/sim"
)

// Instance is an application set up on a particular machine.
type Instance struct {
	// Thread is the per-node program.
	Thread func(*proc.Env)
	// Probes names shared-memory locations holding results, so
	// experiments and tests can verify a run without knowing the
	// application's allocation layout.
	Probes map[string]mem.Addr
	// Regions names larger shared structures (every block base), so
	// experiments can reconfigure their coherence type block by block.
	Regions map[string][]mem.Addr
	// Observations, when non-nil, is the run's per-thread observation
	// log: programs whose verdict depends on the values individual reads
	// returned (the litmus tests of internal/litmus) record them here,
	// and the sweep runner captures the log into the cacheable result.
	// The paper's six applications and WORKER leave it nil.
	Observations *shm.ObsLog
}

// Program is an application: Setup allocates shared state on a machine and
// returns the instance every node runs.
type Program struct {
	// Name is the application's paper name.
	Name string
	// Language is the language the paper's version was written in, and
	// Size this instance's problem size, derived from its parameters;
	// Table 3 prints both. Both are empty for the synthetic workloads.
	Language, Size string
	// Setup builds shared state and returns the instance.
	Setup func(m *machine.Machine) Instance
}

// Run sets the program up on the machine and executes it.
func (p Program) Run(m *machine.Machine, limit sim.Cycle) (machine.Result, Instance, error) {
	inst := p.Setup(m)
	res, err := m.Run(inst.Thread, limit)
	return res, inst, err
}

// thousands formats a count with comma separators ("4,096").
func thousands(n int) string {
	s := fmt.Sprintf("%d", n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// Fixed-point arithmetic: applications that the paper ran in floating
// point (AQ, SMGRID, MP3D, WATER) use Q32.32 fixed point here so that all
// shared-memory values are uint64 words. The memory system cannot tell the
// difference and the arithmetic is deterministic across platforms.
const fracBits = 32

// toFix converts a float to Q32.32.
func toFix(f float64) uint64 { return uint64(int64(f * (1 << fracBits))) }

// fromFix converts Q32.32 to float.
func fromFix(v uint64) float64 { return float64(int64(v)) / (1 << fracBits) }

// mulFix multiplies two Q32.32 numbers.
func mulFix(a, b uint64) uint64 {
	ia, ib := int64(a), int64(b)
	// Split to avoid overflow: (ahi + alo/2^32) * b.
	hi := (ia >> fracBits) * ib
	lo := (ia & ((1 << fracBits) - 1)) * (ib >> fracBits)
	lo2 := ((ia & ((1 << fracBits) - 1)) * (ib & ((1 << fracBits) - 1))) >> fracBits
	return uint64(hi + lo + lo2)
}

// Registry returns the paper's six applications at their default scaled
// sizes, in the order of Figure 4.
func Registry() []Program {
	return []Program{
		TSP(DefaultTSP()),
		AQ(DefaultAQ()),
		SMGrid(DefaultSMGrid()),
		Evolve(DefaultEvolve()),
		MP3D(DefaultMP3D()),
		Water(DefaultWater()),
	}
}

// ByName finds a registered application.
func ByName(name string) (Program, error) {
	for _, p := range Registry() {
		if p.Name == name {
			return p, nil
		}
	}
	return Program{}, fmt.Errorf("apps: unknown application %q", name)
}

// QuickRegistry returns reduced-size instances of the six applications for
// smoke tests and short benchmark runs. The sharing structure of each
// application is preserved; only the work shrinks.
func QuickRegistry() []Program {
	return []Program{
		TSP(TSPParams{Cities: 8, SpawnDepth: 3, Seed: 20261994, ExpandCycles: 120}),
		AQ(AQParams{Tolerance: 0.00005, MaxLevel: 7, SpawnLevel: 4, EvalCycles: 40}),
		SMGrid(SMGridParams{Size: 33, Levels: 2, VCycles: 1, Sweeps: 2, PointCycles: 20}),
		Evolve(EvolveParams{Dimensions: 10, TotalWalks: 256, StepCycles: 30, Seed: 90125}),
		MP3D(MP3DParams{Particles: 1024, CellsPerSide: 8, Steps: 2, MoveCycles: 60, Seed: 3141}),
		Water(WaterParams{Molecules: 32, Steps: 2, PairCycles: 400, Seed: 2718}),
	}
}
