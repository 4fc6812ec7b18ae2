package swex

import (
	"fmt"

	"swex/internal/machine"
	"swex/internal/proto"
	"swex/internal/report"
	"swex/internal/sweep"
)

// Every ablation is a registry exhibit like the tables and figures: its
// plan function adds one (baseline, variant) job pair per row and returns
// the assembler that reads one AblationRow per pair. Shared points (the
// same baseline in several ablations, or an ablation point that is also a
// figure point) therefore execute once per runner and ride the result
// cache.

// AblationRow is one configuration comparison.
type AblationRow struct {
	Name     string
	Baseline float64 // cycles
	Variant  float64 // cycles
}

// Delta returns the variant's run-time change relative to the baseline
// (positive = slower).
func (r AblationRow) Delta() float64 { return r.Variant/r.Baseline - 1 }

// AblationTable renders rows with their deltas.
func AblationTable(title string, rows []AblationRow) *report.Table {
	t := report.NewTable(title, "workload", "baseline", "variant", "delta")
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.0f", r.Baseline),
			fmt.Sprintf("%.0f", r.Variant),
			fmt.Sprintf("%+.1f%%", 100*r.Delta()))
	}
	return t
}

// ablationRun is one ablation row as planned: its name and the result
// indices of its baseline and variant jobs.
type ablationRun struct {
	name          string
	base, variant int
}

// pair adds a row's baseline job, then its variant job.
func (p *plan) pair(name string, base, variant sweep.Job) ablationRun {
	return ablationRun{name, p.add(base), p.add(variant)}
}

// compare adds a row whose baseline and variant run the same program on
// two machine configurations.
func (p *plan) compare(name string, prog sweep.ProgramRef, base, variant machine.Config) ablationRun {
	return p.pair(name, sweep.Job{Program: prog, Config: base}, sweep.Job{Program: prog, Config: variant})
}

// rows returns the assembler that reads the rows' run times.
func rows(runs ...ablationRun) assembler[[]AblationRow] {
	return func(r []sweep.Result) ([]AblationRow, error) {
		out := make([]AblationRow, len(runs))
		for i, run := range runs {
			out[i] = AblationRow{run.name, float64(r[run.base].Time), float64(r[run.variant].Time)}
		}
		return out, nil
	}
}

// ablateLocalBit measures the effect of Alewife's one-bit local pointer
// (paper Section 3.1 reports about a 2% improvement; its main value is
// guaranteeing a node cannot overflow its own home directory). The variant
// disables the bit, so home-node accesses consume — and can overflow —
// ordinary hardware pointers. The first workload (apps.HomeShare) is built
// to show the mechanism: every node repeatedly reads its own block while
// exactly five remote nodes read it too, so the home's read is the straw
// that overflows a five-pointer directory when the bit is absent.
func ablateLocalBit(p *plan) assembler[[]AblationRow] {
	withBit := proto.LimitLESS(5)
	without := withBit
	without.LocalBit = false
	without.Name = "DirnH5SNB(no-local-bit)"
	base, variant := victimCached(16, withBit), victimCached(16, without)
	return rows(
		p.compare("home-share", sweep.ProgramRef{App: sweep.HomeShareName}, base, variant),
		p.compare("WATER", sweep.ProgramRef{App: "WATER", Quick: true}, base, variant),
	)
}

// ablateSoftware compares application run time under the flexible C
// interface against the hand-tuned assembly handlers (paper Section 4.2:
// the tuned handlers halve handler latency; whole-application impact is
// smaller because handlers are a fraction of run time).
func ablateSoftware(p *plan) assembler[[]AblationRow] {
	c := victimCached(p.nodes(), proto.LimitLESS(5))
	c.Software = machine.FlexibleC
	asm := c
	asm.Software = machine.TunedASM
	var runs []ablationRun
	for _, prog := range p.programs() {
		runs = append(runs, p.compare(prog.Name, sweep.ProgramRef{App: prog.Name, Quick: p.Quick}, c, asm))
	}
	return rows(runs...)
}

// ablateBroadcast compares Dir_nH_1S_NB,LACK (software directory
// extension) with Dir_1H_1S_B,LACK (software broadcast) on WORKER: the
// broadcast protocol trades read-overflow traps for machine-wide
// invalidations on every write to a shared block (paper Section 2.5).
func ablateBroadcast(p *plan) assembler[[]AblationRow] {
	sizes, iters := []int{2, 8}, 8
	if p.Quick {
		sizes, iters = []int{4}, 4
	}
	var runs []ablationRun
	for _, k := range sizes {
		runs = append(runs, p.compare(fmt.Sprintf("WORKER k=%d", k),
			sweep.ProgramRef{App: sweep.WorkerName, SetSize: k, Iters: iters},
			machine.Config{Nodes: 16, Spec: proto.OnePointer(proto.AckLACK)},
			machine.Config{Nodes: 16, Spec: proto.Dir1SW()}))
	}
	return rows(runs...)
}

// ablateBatchReads measures the read-burst batching enhancement (a
// Section 7 style protocol-software extension): handlers drain queued read
// requests at incremental cost. It helps widely-read, rarely-written data
// (WATER) and hurts frequently-written queue words (TSP) — the
// "data specific" tradeoff the paper's enhancement section describes.
func ablateBatchReads(p *plan) assembler[[]AblationRow] {
	base := victimCached(p.nodes(), proto.LimitLESS(5))
	batched := base
	batched.BatchReads = true
	var runs []ablationRun
	for _, name := range []string{"WATER", "TSP"} {
		runs = append(runs, p.compare(name, sweep.ProgramRef{App: name, Quick: p.Quick}, base, batched))
	}
	return rows(runs...)
}

// ablateParallelInv measures the parallel-invalidation enhancement: the
// write-fault handler's per-invalidation cost drops from sequential
// transmission to a pipelined hand-off. Large worker sets (many
// invalidations per write) benefit; small ones barely notice — the
// size-dependent behavior behind the paper's suggestion to select the
// procedure dynamically (Section 7).
func ablateParallelInv(p *plan) assembler[[]AblationRow] {
	sizes, iters := []int{2, 15}, 8
	if p.Quick {
		sizes, iters = []int{2, 8}, 4
	}
	var runs []ablationRun
	for _, k := range sizes {
		runs = append(runs, p.compare(fmt.Sprintf("WORKER k=%d", k),
			sweep.ProgramRef{App: sweep.WorkerName, SetSize: k, Iters: iters},
			machine.Config{Nodes: 16, Spec: proto.LimitLESS(5)},
			machine.Config{Nodes: 16, Spec: proto.LimitLESS(5), ParallelInv: true}))
	}
	return rows(runs...)
}

// ablateDataSpecific measures block-by-block protocol reconfiguration
// (paper Sections 3.1 and 7): EVOLVE's widely-read fitness table is the
// workload's dominant source of read-overflow traps under a small
// directory; promoting exactly those blocks to the full-map protocol —
// a "data specific" coherence type selected from a library — removes the
// traps while the rest of memory keeps the cheap two-pointer directory.
func ablateDataSpecific(p *plan) assembler[[]AblationRow] {
	base := sweep.AppJob("EVOLVE", p.Quick, victimCached(p.nodes(), proto.LimitLESS(2)))
	promoted := base
	promoted.Program.FullMapRegion = "fitness-table"
	return rows(p.pair("EVOLVE fitness table -> full-map", base, promoted))
}

// ablateMigratory measures the migratory-data adaptation (paper Section 7,
// "dynamic detection"). The workload (apps.TokenRing) passes a token
// record around the machine: each node in turn reads it, computes, and
// writes it back — the canonical migratory pattern, costing a recall plus
// an upgrade per hop without the adaptation and a single ownership
// transfer with it.
func ablateMigratory(p *plan) assembler[[]AblationRow] {
	laps := 6
	if p.Quick {
		laps = 3
	}
	return rows(p.compare("token-ring", sweep.ProgramRef{App: sweep.TokenRingName, Iters: laps},
		machine.Config{Nodes: 16, Spec: proto.LimitLESS(5)},
		machine.Config{Nodes: 16, Spec: proto.LimitLESS(5), MigratoryDetect: true}))
}

// ablateAssociativity compares the paper's two thrashing remedies head to
// head on the TSP study (Section 8: "implementing victim caches or ...
// building set-associative caches"): the baseline is the plain
// direct-mapped cache; the variants add a victim cache or two ways. The
// shared baseline appears in both rows; a runner executes it once.
func ablateAssociativity(p *plan) assembler[[]AblationRow] {
	tsp := sweep.ProgramRef{App: "TSP", Quick: p.Quick}
	base := machine.Config{Nodes: p.nodes(), Spec: proto.LimitLESS(5)}
	victim, twoWay := base, base
	victim.VictimLines = 8
	twoWay.CacheWays = 2
	return rows(
		p.compare("TSP H5: +victim cache", tsp, base, victim),
		p.compare("TSP H5: 2-way set assoc", tsp, base, twoWay),
	)
}

// ablateCICO measures Check-In/Check-Out program annotations (the
// cooperative-shared-memory directives the paper's Sections 1 and 7
// discuss): WORKER's readers check their copies in after the read phase,
// so every write finds an empty directory and sends no invalidations —
// eliminating exactly the software write faults that dominate the
// one-pointer protocols.
func ablateCICO(p *plan) assembler[[]AblationRow] {
	iters := 8
	if p.Quick {
		iters = 4
	}
	var runs []ablationRun
	for _, spec := range []proto.Spec{proto.OnePointer(proto.AckLACK), proto.Dir1SW(), proto.LimitLESS(5)} {
		plain := sweep.WorkerJob(8, iters, machine.Config{Nodes: 16, Spec: spec})
		cico := plain
		cico.Program.CICO = true
		runs = append(runs, p.pair("WORKER k=8 "+spec.Name, plain, cico))
	}
	return rows(runs...)
}

// ablateMultithreading measures Sparcle's block multithreading (the
// Alewife latency-tolerance mechanism the machine provides beyond this
// paper's experiments): several hardware contexts per node overlap remote
// misses, paying a context switch per memory operation. The workload
// (apps.MissStream) streams reads of remote blocks — pure latency-bound
// work. The worker-set structure is unchanged; only the per-node miss
// overlap grows.
func ablateMultithreading(p *plan) assembler[[]AblationRow] {
	blocks := 24 // the miss-stream length per hardware context
	if p.Quick {
		blocks = 12
	}
	times := rows(p.compare("remote miss stream (cycles/miss)",
		sweep.ProgramRef{App: sweep.MissStreamName, Iters: blocks},
		machine.Config{Nodes: 16, Spec: proto.LimitLESS(5)},
		machine.Config{Nodes: 16, Spec: proto.LimitLESS(5), ThreadsPerNode: 4}))
	return func(r []sweep.Result) ([]AblationRow, error) {
		out, err := times(r)
		if err != nil {
			return nil, err
		}
		// Equal per-context work: compare cycles per miss. The 4-context
		// run performs 4x the misses.
		out[0].Baseline /= float64(blocks)
		out[0].Variant /= 4 * float64(blocks)
		return out, nil
	}
}
