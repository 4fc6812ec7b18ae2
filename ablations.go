package swex

import (
	"fmt"

	"swex/internal/machine"
	"swex/internal/proto"
	"swex/internal/report"
	"swex/internal/sweep"
)

// Every ablation is a registry exhibit like the tables and figures: its
// rows are (baseline, variant) job pairs, AblateXxxJobs flattens them into
// a sweep matrix, and AblateXxx runs that matrix through Options.Sweep and
// reads one row per pair. Shared points (the same baseline in several
// ablations, or an ablation point that is also a figure point) therefore
// execute once per runner and ride the result cache.

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

// ablationPair is one ablation row: the baseline job and the variant job.
type ablationPair struct {
	name          string
	base, variant sweep.Job
}

// pair builds a row whose baseline and variant run the same program on two
// machine configurations.
func pair(name string, prog sweep.ProgramRef, base, variant machine.Config) ablationPair {
	return ablationPair{name, sweep.Job{Program: prog, Config: base}, sweep.Job{Program: prog, Config: variant}}
}

// pairJobs flattens rows into a matrix: each row's baseline, then its
// variant.
func pairJobs(pairs []ablationPair) []sweep.Job {
	jobs := make([]sweep.Job, 0, 2*len(pairs))
	for _, p := range pairs {
		jobs = append(jobs, p.base, p.variant)
	}
	return jobs
}

// runPairs executes the rows' matrix and returns their run times.
func runPairs(o Options, what string, pairs []ablationPair) ([]AblationRow, error) {
	results, err := o.run(pairJobs(pairs))
	if err != nil {
		return nil, fmt.Errorf("%s ablation: %w", what, err)
	}
	rows := make([]AblationRow, len(pairs))
	for i, p := range pairs {
		rows[i] = AblationRow{p.name, float64(results[2*i].Time), float64(results[2*i+1].Time)}
	}
	return rows, nil
}

// ablationNodes is the machine size of the application ablations: 64
// nodes, 16 in quick mode.
func ablationNodes(o Options) int {
	if o.Quick {
		return 16
	}
	return 64
}

func localBitPairs(Options) []ablationPair {
	withBit := proto.LimitLESS(5)
	without := withBit
	without.LocalBit = false
	without.Name = "DirnH5SNB(no-local-bit)"
	base := machine.Config{Nodes: 16, Spec: withBit, VictimLines: 8}
	variant := machine.Config{Nodes: 16, Spec: without, VictimLines: 8}
	return []ablationPair{
		pair("home-share", sweep.ProgramRef{App: sweep.HomeShareName}, base, variant),
		pair("WATER", sweep.ProgramRef{App: "WATER", Quick: true}, base, variant),
	}
}

// AblateLocalBitJobs enumerates the local-bit ablation's runs.
func AblateLocalBitJobs(o Options) []sweep.Job { return pairJobs(localBitPairs(o)) }

// AblateLocalBit measures the effect of Alewife's one-bit local pointer
// (paper Section 3.1 reports about a 2% improvement; its main value is
// guaranteeing a node cannot overflow its own home directory). The variant
// disables the bit, so home-node accesses consume — and can overflow —
// ordinary hardware pointers. The first workload (apps.HomeShare) is built
// to show the mechanism: every node repeatedly reads its own block while
// exactly five remote nodes read it too, so the home's read is the straw
// that overflows a five-pointer directory when the bit is absent.
func AblateLocalBit(o Options) ([]AblationRow, error) {
	return runPairs(o, "local-bit", localBitPairs(o))
}

func softwarePairs(o Options) []ablationPair {
	c := machine.Config{Nodes: ablationNodes(o), Spec: proto.LimitLESS(5), Software: machine.FlexibleC, VictimLines: 8}
	asm := c
	asm.Software = machine.TunedASM
	var pairs []ablationPair
	for _, name := range table3Names(o) {
		pairs = append(pairs, pair(name, sweep.ProgramRef{App: name, Quick: o.Quick}, c, asm))
	}
	return pairs
}

// AblateSoftwareJobs enumerates the handler-implementation ablation's runs.
func AblateSoftwareJobs(o Options) []sweep.Job { return pairJobs(softwarePairs(o)) }

// AblateSoftware compares application run time under the flexible C
// interface against the hand-tuned assembly handlers (paper Section 4.2:
// the tuned handlers halve handler latency; whole-application impact is
// smaller because handlers are a fraction of run time).
func AblateSoftware(o Options) ([]AblationRow, error) {
	return runPairs(o, "software", softwarePairs(o))
}

func broadcastPairs(o Options) []ablationPair {
	sizes, iters := []int{2, 8}, 8
	if o.Quick {
		sizes, iters = []int{4}, 4
	}
	var pairs []ablationPair
	for _, k := range sizes {
		pairs = append(pairs, pair(fmt.Sprintf("WORKER k=%d", k),
			sweep.ProgramRef{App: sweep.WorkerName, SetSize: k, Iters: iters},
			machine.Config{Nodes: 16, Spec: proto.OnePointer(proto.AckLACK)},
			machine.Config{Nodes: 16, Spec: proto.Dir1SW()}))
	}
	return pairs
}

// AblateBroadcastJobs enumerates the broadcast ablation's runs.
func AblateBroadcastJobs(o Options) []sweep.Job { return pairJobs(broadcastPairs(o)) }

// AblateBroadcast compares Dir_nH_1S_NB,LACK (software directory
// extension) with Dir_1H_1S_B,LACK (software broadcast) on WORKER: the
// broadcast protocol trades read-overflow traps for machine-wide
// invalidations on every write to a shared block (paper Section 2.5).
func AblateBroadcast(o Options) ([]AblationRow, error) {
	return runPairs(o, "broadcast", broadcastPairs(o))
}

func batchPairs(o Options) []ablationPair {
	base := machine.Config{Nodes: ablationNodes(o), Spec: proto.LimitLESS(5), VictimLines: 8}
	batched := base
	batched.BatchReads = true
	var pairs []ablationPair
	for _, name := range []string{"WATER", "TSP"} {
		pairs = append(pairs, pair(name, sweep.ProgramRef{App: name, Quick: o.Quick}, base, batched))
	}
	return pairs
}

// AblateBatchReadsJobs enumerates the read-batching ablation's runs.
func AblateBatchReadsJobs(o Options) []sweep.Job { return pairJobs(batchPairs(o)) }

// AblateBatchReads measures the read-burst batching enhancement (a
// Section 7 style protocol-software extension): handlers drain queued read
// requests at incremental cost. It helps widely-read, rarely-written data
// (WATER) and hurts frequently-written queue words (TSP) — the
// "data specific" tradeoff the paper's enhancement section describes.
func AblateBatchReads(o Options) ([]AblationRow, error) {
	return runPairs(o, "batch", batchPairs(o))
}

func parallelInvPairs(o Options) []ablationPair {
	sizes, iters := []int{2, 15}, 8
	if o.Quick {
		sizes, iters = []int{2, 8}, 4
	}
	var pairs []ablationPair
	for _, k := range sizes {
		pairs = append(pairs, pair(fmt.Sprintf("WORKER k=%d", k),
			sweep.ProgramRef{App: sweep.WorkerName, SetSize: k, Iters: iters},
			machine.Config{Nodes: 16, Spec: proto.LimitLESS(5)},
			machine.Config{Nodes: 16, Spec: proto.LimitLESS(5), ParallelInv: true}))
	}
	return pairs
}

// AblateParallelInvJobs enumerates the parallel-invalidation ablation's
// runs.
func AblateParallelInvJobs(o Options) []sweep.Job { return pairJobs(parallelInvPairs(o)) }

// AblateParallelInv measures the parallel-invalidation enhancement: the
// write-fault handler's per-invalidation cost drops from sequential
// transmission to a pipelined hand-off. Large worker sets (many
// invalidations per write) benefit; small ones barely notice — the
// size-dependent behavior behind the paper's suggestion to select the
// procedure dynamically (Section 7).
func AblateParallelInv(o Options) ([]AblationRow, error) {
	return runPairs(o, "parallel-inv", parallelInvPairs(o))
}

func dataSpecificPairs(o Options) []ablationPair {
	base := sweep.AppJob("EVOLVE", o.Quick, machine.Config{
		Nodes: ablationNodes(o), Spec: proto.LimitLESS(2), VictimLines: 8,
	})
	promoted := base
	promoted.Program.FullMapRegion = "fitness-table"
	return []ablationPair{{"EVOLVE fitness table -> full-map", base, promoted}}
}

// AblateDataSpecificJobs enumerates the data-specific ablation's runs.
func AblateDataSpecificJobs(o Options) []sweep.Job { return pairJobs(dataSpecificPairs(o)) }

// AblateDataSpecific measures block-by-block protocol reconfiguration
// (paper Sections 3.1 and 7): EVOLVE's widely-read fitness table is the
// workload's dominant source of read-overflow traps under a small
// directory; promoting exactly those blocks to the full-map protocol —
// a "data specific" coherence type selected from a library — removes the
// traps while the rest of memory keeps the cheap two-pointer directory.
func AblateDataSpecific(o Options) ([]AblationRow, error) {
	return runPairs(o, "data-specific", dataSpecificPairs(o))
}

func migratoryPairs(o Options) []ablationPair {
	laps := 6
	if o.Quick {
		laps = 3
	}
	return []ablationPair{pair("token-ring", sweep.ProgramRef{App: sweep.TokenRingName, Iters: laps},
		machine.Config{Nodes: 16, Spec: proto.LimitLESS(5)},
		machine.Config{Nodes: 16, Spec: proto.LimitLESS(5), MigratoryDetect: true})}
}

// AblateMigratoryJobs enumerates the migratory-data ablation's runs.
func AblateMigratoryJobs(o Options) []sweep.Job { return pairJobs(migratoryPairs(o)) }

// AblateMigratory measures the migratory-data adaptation (paper Section 7,
// "dynamic detection"). The workload (apps.TokenRing) passes a token
// record around the machine: each node in turn reads it, computes, and
// writes it back — the canonical migratory pattern, costing a recall plus
// an upgrade per hop without the adaptation and a single ownership
// transfer with it.
func AblateMigratory(o Options) ([]AblationRow, error) {
	return runPairs(o, "migratory", migratoryPairs(o))
}

func associativityPairs(o Options) []ablationPair {
	tsp := sweep.ProgramRef{App: "TSP", Quick: o.Quick}
	base := machine.Config{Nodes: ablationNodes(o), Spec: proto.LimitLESS(5)}
	victim, twoWay := base, base
	victim.VictimLines = 8
	twoWay.CacheWays = 2
	return []ablationPair{
		pair("TSP H5: +victim cache", tsp, base, victim),
		pair("TSP H5: 2-way set assoc", tsp, base, twoWay),
	}
}

// AblateAssociativityJobs enumerates the associativity ablation's runs
// (the shared baseline appears twice; a runner executes it once).
func AblateAssociativityJobs(o Options) []sweep.Job { return pairJobs(associativityPairs(o)) }

// AblateAssociativity compares the paper's two thrashing remedies head to
// head on the TSP study (Section 8: "implementing victim caches or ...
// building set-associative caches"): the baseline is the plain
// direct-mapped cache; the variants add a victim cache or two ways.
func AblateAssociativity(o Options) ([]AblationRow, error) {
	return runPairs(o, "associativity", associativityPairs(o))
}

func cicoPairs(o Options) []ablationPair {
	iters := 8
	if o.Quick {
		iters = 4
	}
	var pairs []ablationPair
	for _, spec := range []proto.Spec{proto.OnePointer(proto.AckLACK), proto.Dir1SW(), proto.LimitLESS(5)} {
		plain := sweep.WorkerJob(8, iters, machine.Config{Nodes: 16, Spec: spec})
		cico := plain
		cico.Program.CICO = true
		pairs = append(pairs, ablationPair{"WORKER k=8 " + spec.Name, plain, cico})
	}
	return pairs
}

// AblateCICOJobs enumerates the check-in/check-out ablation's runs.
func AblateCICOJobs(o Options) []sweep.Job { return pairJobs(cicoPairs(o)) }

// AblateCICO measures Check-In/Check-Out program annotations (the
// cooperative-shared-memory directives the paper's Sections 1 and 7
// discuss): WORKER's readers check their copies in after the read phase,
// so every write finds an empty directory and sends no invalidations —
// eliminating exactly the software write faults that dominate the
// one-pointer protocols.
func AblateCICO(o Options) ([]AblationRow, error) {
	return runPairs(o, "cico", cicoPairs(o))
}

// multithreadingBlocks is the miss-stream length per hardware context.
func multithreadingBlocks(o Options) int {
	if o.Quick {
		return 12
	}
	return 24
}

func multithreadingPairs(o Options) []ablationPair {
	return []ablationPair{pair("remote miss stream (cycles/miss)",
		sweep.ProgramRef{App: sweep.MissStreamName, Iters: multithreadingBlocks(o)},
		machine.Config{Nodes: 16, Spec: proto.LimitLESS(5)},
		machine.Config{Nodes: 16, Spec: proto.LimitLESS(5), ThreadsPerNode: 4})}
}

// AblateMultithreadingJobs enumerates the multithreading ablation's runs.
func AblateMultithreadingJobs(o Options) []sweep.Job { return pairJobs(multithreadingPairs(o)) }

// AblateMultithreading measures Sparcle's block multithreading (the
// Alewife latency-tolerance mechanism the machine provides beyond this
// paper's experiments): several hardware contexts per node overlap remote
// misses, paying a context switch per memory operation. The workload
// (apps.MissStream) streams reads of remote blocks — pure latency-bound
// work. The worker-set structure is unchanged; only the per-node miss
// overlap grows.
func AblateMultithreading(o Options) ([]AblationRow, error) {
	rows, err := runPairs(o, "multithreading", multithreadingPairs(o))
	if err != nil {
		return nil, err
	}
	// Equal per-context work: compare cycles per miss. The 4-context run
	// performs 4x the misses.
	blocks := float64(multithreadingBlocks(o))
	rows[0].Baseline /= blocks
	rows[0].Variant /= 4 * blocks
	return rows, nil
}
