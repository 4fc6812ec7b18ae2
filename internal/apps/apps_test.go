package apps

import (
	"fmt"
	"math"
	"testing"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
)

// readWord reads a word on a finished machine for verification.
func readWord(t *testing.T, m *machine.Machine, a mem.Addr) uint64 {
	t.Helper()
	var got uint64
	done := false
	m.Fabric.Cache(0).Access(a, proto.Op{Done: func(v uint64) { got = v; done = true }})
	if !m.Engine.RunUntil(func() bool { return done }, 100_000_000) {
		t.Fatal("verification read did not complete")
	}
	return got
}

func runApp(t *testing.T, prog Program, nodes int, spec proto.Spec) (*machine.Machine, machine.Result, Instance) {
	t.Helper()
	m := machine.MustNew(machine.Config{
		Nodes: nodes, Spec: spec, VictimLines: 8,
	})
	res, inst, err := prog.Run(m, 0)
	if err != nil {
		t.Fatalf("%s on %s: %v", prog.Name, spec.Name, err)
	}
	return m, res, inst
}

func TestFixedPoint(t *testing.T) {
	if got := fromFix(toFix(2.5)); got != 2.5 {
		t.Fatalf("round trip = %v", got)
	}
	if got := fromFix(mulFix(toFix(1.5), toFix(2.0))); math.Abs(got-3.0) > 1e-6 {
		t.Fatalf("mulFix(1.5, 2) = %v", got)
	}
	if got := fromFix(mulFix(toFix(-1.5), toFix(2.0))); math.Abs(got+3.0) > 1e-6 {
		t.Fatalf("mulFix(-1.5, 2) = %v", got)
	}
}

// TestProgramSizes checks Table 3's metadata: each application's Size is
// derived from the parameters it was built with, so the full and quick
// registries report the problem sizes they actually run.
func TestProgramSizes(t *testing.T) {
	for _, c := range []struct {
		reg  []Program
		want []string
	}{
		{Registry(), []string{"11 city tour", "x^4y^4 over ((0,0),(2,2))", "65 x 65",
			"12 dimensions", "4,096 particles", "64 molecules"}},
		{QuickRegistry(), []string{"8 city tour", "x^4y^4 over ((0,0),(2,2))", "33 x 33",
			"10 dimensions", "1,024 particles", "32 molecules"}},
	} {
		for i, prog := range c.reg {
			if prog.Size != c.want[i] {
				t.Errorf("%s: Size = %q, want %q", prog.Name, prog.Size, c.want[i])
			}
			if prog.Language == "" {
				t.Errorf("%s: no language", prog.Name)
			}
		}
	}
	if got := MP3D(MP3DParams{Particles: 1234567}).Size; got != "1,234,567 particles" {
		t.Errorf("MP3D with 1234567 particles: Size = %q", got)
	}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"TSP", "AQ", "SMGRID", "EVOLVE", "MP3D", "WATER"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d apps, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].Name, name)
		}
	}
	if _, err := ByName("TSP"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown app")
	}
}

func TestTSPOptimalSolver(t *testing.T) {
	// Triangle with known optimal tour.
	d := [][]uint64{
		{0, 1, 4},
		{1, 0, 2},
		{4, 2, 0},
	}
	if got := tspOptimal(d); got != 7 {
		t.Fatalf("optimal = %d, want 7 (0-1-2-0)", got)
	}
}

func TestTSPTaskPacking(t *testing.T) {
	v, c, dep, cost := tspUnpack(tspPack(0b1010, 7, 3, 12345))
	if v != 0b1010 || c != 7 || dep != 3 || cost != 12345 {
		t.Fatalf("pack/unpack mismatch: %v %v %v %v", v, c, dep, cost)
	}
}

func TestTSPSearchIsExhaustive(t *testing.T) {
	// A small tour on 4 nodes must visit every complete tour that the
	// bound admits; with the bound seeded optimal and uniform pruning,
	// the tour counter must be deterministic and positive, and the bound
	// must still equal the optimum afterwards.
	p := TSPParams{Cities: 7, SpawnDepth: 2, Seed: 42, ExpandCycles: 10}
	d := tspDistances(p)
	opt := tspOptimal(d)

	m, _, inst := runApp(t, TSP(p), 4, proto.FullMap())
	bound := readWord(t, m, inst.Probes["bound"])
	if bound != opt {
		t.Fatalf("bound after run = %d, want optimal %d", bound, opt)
	}
	if uint64(inst.Probes["optimal"]) != opt {
		t.Fatalf("optimal probe = %d, want %d", inst.Probes["optimal"], opt)
	}
	tours := readWord(t, m, inst.Probes["tours"])
	if tours == 0 {
		t.Fatal("no complete tours evaluated")
	}
}

func TestTSPDeterministicAcrossRuns(t *testing.T) {
	p := TSPParams{Cities: 7, SpawnDepth: 2, Seed: 42, ExpandCycles: 10}
	_, r1, _ := runApp(t, TSP(p), 4, proto.LimitLESS(2))
	_, r2, _ := runApp(t, TSP(p), 4, proto.LimitLESS(2))
	if r1.Time != r2.Time {
		t.Fatalf("TSP runs differ: %d vs %d", r1.Time, r2.Time)
	}
}

func TestAQResultAccuracy(t *testing.T) {
	p := AQParams{Tolerance: 0.001, MaxLevel: 7, SpawnLevel: 3, EvalCycles: 10}
	m, _, inst := runApp(t, AQ(p), 4, proto.FullMap())
	sum := readWord(t, m, inst.Probes["integral"])
	got := fromFix(sum)
	if math.Abs(got-AQExact()) > 0.12*AQExact() {
		t.Fatalf("integral = %v, want within 12%% of %v", got, AQExact())
	}
}

func TestAQWorkScalesWithTolerance(t *testing.T) {
	loose := AQParams{Tolerance: 0.01, MaxLevel: 6, SpawnLevel: 3, EvalCycles: 10}
	tight := AQParams{Tolerance: 0.0001, MaxLevel: 8, SpawnLevel: 3, EvalCycles: 10}
	_, rl, _ := runApp(t, AQ(loose), 2, proto.FullMap())
	_, rt, _ := runApp(t, AQ(tight), 2, proto.FullMap())
	if rt.Time <= rl.Time {
		t.Fatalf("tighter tolerance (%d cycles) not more work than loose (%d)", rt.Time, rl.Time)
	}
}

func TestSMGridConverges(t *testing.T) {
	p := SMGridParams{Size: 17, Levels: 2, VCycles: 1, Sweeps: 2, PointCycles: 5}
	m, _, _ := runApp(t, SMGrid(p), 4, proto.FullMap())
	// After relaxation with unit boundary, interior points move toward
	// the boundary value: strictly positive, below 1.
	// Row 8 is owned by node 8%4=0; its buffer addresses are internal,
	// so verify via memory contents directly: scan node segments for
	// fixed-point values in (0, 1].
	count := 0
	for n := mem.NodeID(0); n < 4; n++ {
		for off := mem.Addr(0); off < 4096; off++ {
			v := m.Mem.Read(mem.SegBase(n) + off)
			f := fromFix(v)
			if f > 0.001 && f <= 1.0 {
				count++
			}
		}
	}
	if count < 17 {
		t.Fatalf("relaxation left no interior values; found %d plausible points", count)
	}
}

func TestSMGridBarrierHeavy(t *testing.T) {
	p := SMGridParams{Size: 17, Levels: 2, VCycles: 1, Sweeps: 1, PointCycles: 5}
	_, res, _ := runApp(t, SMGrid(p), 4, proto.FullMap())
	// Multigrid is barrier-synchronized: there must be significant
	// invalidation traffic from the ping-pong updates.
	if res.Counters.Get("msg.INV") == 0 {
		t.Fatal("no invalidations in a Jacobi ping-pong")
	}
}

func TestEvolveFindsMaxima(t *testing.T) {
	p := EvolveParams{Dimensions: 8, TotalWalks: 12, StepCycles: 4, Seed: 7}
	m, _, inst := runApp(t, Evolve(p), 4, proto.FullMap())
	maxima := readWord(t, m, inst.Probes["maxima"])
	if maxima != 12 {
		t.Fatalf("maxima = %d, want 12 (every walk ends at a local maximum)", maxima)
	}
}

func TestEvolveWorkerSetSpread(t *testing.T) {
	p := EvolveParams{Dimensions: 8, TotalWalks: 32, StepCycles: 4, Seed: 7}
	_, res, _ := runApp(t, Evolve(p), 8, proto.FullMap())
	h := res.WorkerSets
	if h.Count(1) == 0 {
		t.Fatal("no single-node worker sets; EVOLVE should have many")
	}
	if h.Count(1) < h.Count(4) {
		t.Fatal("worker-set histogram should decay with size")
	}
	if h.MaxBucket() < 4 {
		t.Fatalf("max worker set = %d; the global counters should be widely shared", h.MaxBucket())
	}
}

func TestMP3DParticleConservation(t *testing.T) {
	p := MP3DParams{Particles: 64, CellsPerSide: 4, Steps: 2, MoveCycles: 5, Seed: 3}
	m, _, inst := runApp(t, MP3D(p), 4, proto.FullMap())
	// Sum of all cell counts = particles * steps. Cell c is one block
	// after the previous cell on the same home (round-robin layout);
	// reconstruct from the cell0 probe.
	cells := 4 * 4 * 4
	idx := make([]mem.Addr, 4)
	for n := 0; n < 4; n++ {
		idx[n] = inst.Probes[fmt.Sprintf("cell%d", n)]
	}
	var total uint64
	for c := 0; c < cells; c++ {
		n := c % 4
		total += readWord(t, m, idx[n])
		idx[n] += mem.WordsPerBlock
	}
	if total != 64*2 {
		t.Fatalf("cell count sum = %d, want %d", total, 64*2)
	}
}

func TestWaterRunsAllProtocols(t *testing.T) {
	p := WaterParams{Molecules: 16, Steps: 1, PairCycles: 10, Seed: 5}
	for _, spec := range []proto.Spec{proto.FullMap(), proto.LimitLESS(5), proto.SoftwareOnly()} {
		_, res, _ := runApp(t, Water(p), 4, spec)
		if res.Messages == 0 {
			t.Fatalf("WATER on %s produced no traffic", spec.Name)
		}
	}
}

func TestWaterWideReadSharing(t *testing.T) {
	p := WaterParams{Molecules: 16, Steps: 2, PairCycles: 10, Seed: 5}
	_, res, _ := runApp(t, Water(p), 8, proto.FullMap())
	// Every molecule is read by all 8 nodes each step: molecule blocks
	// reach worker sets near the machine size.
	if res.WorkerSets.MaxBucket() < 7 {
		t.Fatalf("max worker set = %d, want near 8 (all nodes read all molecules)",
			res.WorkerSets.MaxBucket())
	}
}

// tinyPrograms returns small instances of every application.
func tinyPrograms() []Program {
	return []Program{
		TSP(TSPParams{Cities: 6, SpawnDepth: 2, Seed: 42, ExpandCycles: 5}),
		AQ(AQParams{Tolerance: 0.01, MaxLevel: 5, SpawnLevel: 2, EvalCycles: 5}),
		SMGrid(SMGridParams{Size: 9, Levels: 2, VCycles: 1, Sweeps: 1, PointCycles: 3}),
		Evolve(EvolveParams{Dimensions: 6, TotalWalks: 8, StepCycles: 2, Seed: 7}),
		MP3D(MP3DParams{Particles: 32, CellsPerSide: 4, Steps: 1, MoveCycles: 5, Seed: 3}),
		Water(WaterParams{Molecules: 8, Steps: 1, PairCycles: 5, Seed: 5}),
	}
}

func TestAllAppsCompleteOnSpectrum(t *testing.T) {
	if testing.Short() {
		t.Skip("full spectrum sweep")
	}
	// Small instances of every application across the protocol extremes.
	progs := tinyPrograms()
	specs := []proto.Spec{
		proto.FullMap(), proto.LimitLESS(5), proto.LimitLESS(2),
		proto.OnePointer(proto.AckHW), proto.OnePointer(proto.AckLACK),
		proto.OnePointer(proto.AckSW), proto.SoftwareOnly(), proto.Dir1SW(),
	}
	for _, prog := range progs {
		for _, spec := range specs {
			t.Run(prog.Name+"/"+spec.Name, func(t *testing.T) {
				_, res, _ := runApp(t, prog, 4, spec)
				if res.Time == 0 {
					t.Fatal("zero run time")
				}
			})
		}
	}
}

// TestAppsCompleteWithTwoContexts pins that every application runs to
// completion on a machine with two contexts per node: the programs
// partition their work and synchronize by node, so the extra contexts
// must idle rather than join a barrier or a termination count sized for
// one context per node and hang it.
func TestAppsCompleteWithTwoContexts(t *testing.T) {
	for _, prog := range tinyPrograms() {
		t.Run(prog.Name, func(t *testing.T) {
			m := machine.MustNew(machine.Config{
				Nodes: 4, Spec: proto.LimitLESS(5), VictimLines: 8, ThreadsPerNode: 2,
			})
			if _, _, err := prog.Run(m, 20_000_000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSequentialRunsWork(t *testing.T) {
	// Every app must run on a single node (the Table 3 sequential
	// baseline).
	progs := []Program{
		TSP(TSPParams{Cities: 6, SpawnDepth: 2, Seed: 42, ExpandCycles: 5}),
		AQ(AQParams{Tolerance: 0.01, MaxLevel: 5, SpawnLevel: 2, EvalCycles: 5}),
		SMGrid(SMGridParams{Size: 9, Levels: 2, VCycles: 1, Sweeps: 1, PointCycles: 3}),
		Evolve(EvolveParams{Dimensions: 6, TotalWalks: 8, StepCycles: 2, Seed: 7}),
		MP3D(MP3DParams{Particles: 32, CellsPerSide: 4, Steps: 1, MoveCycles: 5, Seed: 3}),
		Water(WaterParams{Molecules: 8, Steps: 1, PairCycles: 5, Seed: 5}),
	}
	for _, prog := range progs {
		t.Run(prog.Name, func(t *testing.T) {
			_, res, _ := runApp(t, prog, 1, proto.FullMap())
			if res.Time == 0 {
				t.Fatal("zero sequential time")
			}
		})
	}
}

func TestAppSpeedupSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup comparison")
	}
	// A modest WATER instance must speed up from 1 to 8 nodes under
	// full-map.
	p := WaterParams{Molecules: 32, Steps: 2, PairCycles: 40, Seed: 5}
	_, seq, _ := runApp(t, Water(p), 1, proto.FullMap())
	_, par, _ := runApp(t, Water(p), 8, proto.FullMap())
	speedup := float64(seq.Time) / float64(par.Time)
	if speedup < 3 {
		t.Fatalf("WATER 8-node speedup = %.2f, want >= 3", speedup)
	}
}

var _ = sim.Cycle(0)

// Golden results: the applications' computed answers (not just their
// timing) are deterministic functions of their parameters; pin them so a
// protocol change that corrupts data is caught even if timing still looks
// plausible.
func TestGoldenTSPOptimal(t *testing.T) {
	p := DefaultTSP()
	d := tspDistances(p)
	opt := tspOptimal(d)
	if opt == 0 || opt > 11*100 {
		t.Fatalf("default TSP optimal = %d, implausible", opt)
	}
	// The same seed must always build the same instance.
	if again := tspOptimal(tspDistances(p)); again != opt {
		t.Fatalf("optimal not reproducible: %d vs %d", opt, again)
	}
}

func TestGoldenAQIntegralAcrossProtocols(t *testing.T) {
	// The integral must be identical (not just close) for every protocol:
	// the memory system must never corrupt data, only change timing.
	p := AQParams{Tolerance: 0.001, MaxLevel: 6, SpawnLevel: 3, EvalCycles: 5}
	var results []uint64
	for _, spec := range []proto.Spec{proto.FullMap(), proto.LimitLESS(2), proto.SoftwareOnly()} {
		m, _, inst := runApp(t, AQ(p), 4, spec)
		results = append(results, readWord(t, m, inst.Probes["integral"]))
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("integral differs across protocols: %v", results)
	}
	if got := fromFix(results[0]); math.Abs(got-AQExact()) > 0.15*AQExact() {
		t.Fatalf("integral %v too far from %v", got, AQExact())
	}
}

func TestGoldenEvolveMaximaAcrossProtocols(t *testing.T) {
	p := EvolveParams{Dimensions: 8, TotalWalks: 16, StepCycles: 4, Seed: 7}
	var results []uint64
	for _, spec := range []proto.Spec{proto.FullMap(), proto.OnePointer(proto.AckLACK)} {
		m, _, inst := runApp(t, Evolve(p), 4, spec)
		results = append(results, readWord(t, m, inst.Probes["maxima"]))
	}
	if results[0] != results[1] {
		t.Fatalf("maxima differ across protocols: %v", results)
	}
	if results[0] != 16 {
		t.Fatalf("maxima = %d, want one per walk (16)", results[0])
	}
}
