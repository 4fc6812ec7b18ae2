package swex

// Memory-tier overhead benchmarks: the same WORKER instance on each
// memory-system family, plus the directoryless machine. The flat run is
// the cost of the tier hook when no tier is installed — one nil check per
// directory-side memory access — so comparing its wall time and simulated
// cycles against the pre-memtier baselines shows the hook is free when
// disabled. Run with `go test -bench 'MemTier|Directoryless' -benchmem .`.

import "testing"

func benchWorker(b *testing.B, spec Protocol, tier MemTier) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(MachineConfig{Nodes: 16, Spec: spec, MemTier: tier})
		if err != nil {
			b.Fatal(err)
		}
		inst := Worker(8, 10).Setup(m)
		res, err := m.Run(inst.Thread, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Time), "sim-cycles")
	}
}

// BenchmarkMemTierFlat is the disabled-hook baseline: a flat machine pays
// one branch per directory-side access and must match the pre-memtier
// cycle counts exactly (the simulated-cycles metric is the proof).
func BenchmarkMemTierFlat(b *testing.B) {
	benchWorker(b, FullMap(), MemTier{})
}

// BenchmarkMemTierDisaggregated runs the far-memory family: every
// directory-side access crosses the second interconnect tier.
func BenchmarkMemTierDisaggregated(b *testing.B) {
	benchWorker(b, FullMap(), DisaggregatedMemory())
}

// BenchmarkMemTierNVM runs the hybrid DRAM/NVM family with hot-block
// promotion.
func BenchmarkMemTierNVM(b *testing.B) {
	benchWorker(b, FullMap(), TieredMemory())
}

// BenchmarkDirectoryless runs the directoryless shared-LLC machine, where
// every access is a direct home access.
func BenchmarkDirectoryless(b *testing.B) {
	benchWorker(b, Directoryless(), MemTier{})
}
