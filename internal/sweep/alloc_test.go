// The allocation ceiling of a warm sweep job: heap objects a one-worker
// Runner allocates per litmus job once the process is warm, keys, program
// parsing, machine reset, set-up, run and result capture included.
// Excluded under the race detector, whose instrumentation allocates on
// its own account.
//
//go:build !race

package sweep

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/sim"
)

// warmJobCeiling is the committed ceiling on heap objects per job: the
// highest per-job count measured over six processes when it was set, 36.3
// (Go 1.24, linux/amd64; every process read the same), plus 1% or 20
// objects, whichever is more (DESIGN.md §8, rule 6), rounded up. Machines
// built per job instead of reset allocated 86.9 with every pool full. A
// change that removes allocations lowers it.
const warmJobCeiling = 57

// warmJobs is the ceiling's fixed job set: the litmus corpus tests that
// fit four nodes and 30 generated programs, on a full-map, a LimitLESS
// software-acknowledgment and a Dir1SW machine of four nodes.
func warmJobs(t *testing.T) []Job {
	progs := make([]litmus.Program, 0, 64)
	for _, tc := range litmus.Corpus() {
		if len(tc.Prog.Threads) <= 4 {
			progs = append(progs, tc.Prog)
		}
	}
	rnd := sim.NewRand(1)
	for range 30 {
		progs = append(progs, litmus.Generate(rnd, litmus.GenConfig{SpecAliases: []string{"h1ack", "dir1sw"}}))
	}
	var jobs []Job
	for _, alias := range []string{"full", "h1ack", "dir1sw"} {
		spec, err := litmus.SpecByAlias(alias)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			if len(p.Threads) <= 4 && litmus.CompatibleBase(p, spec) {
				jobs = append(jobs, LitmusJob(p, machine.DefaultConfig(4, spec)))
			}
		}
	}
	return jobs
}

// TestWarmSweepJobAllocCeiling sweeps the job set once to warm the
// process up, then counts the heap objects a second one-worker sweep of
// the same jobs allocates, per job. A runner without a disk cache
// executes every job each time. The collector is off across both sweeps,
// so the processor thread pool the warm-up filled stays full and the
// count does not depend on when the collector ran. runtime.MemStats
// counts the whole process, so the test never runs in parallel with
// another.
func TestWarmSweepJobAllocCeiling(t *testing.T) {
	jobs := warmJobs(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := MustNewRunner(Config{Workers: 1})
	sweep := func() {
		for i, o := range r.Sweep(context.Background(), jobs) {
			if o.Err != nil {
				t.Fatalf("job %d (%s): %v", i, jobs[i], o.Err)
			}
		}
	}
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	perJob := float64(after.Mallocs-before.Mallocs) / float64(len(jobs))
	t.Logf("%d jobs, %.1f heap objects per job (ceiling %d)", len(jobs), perJob, warmJobCeiling)
	if perJob > warmJobCeiling {
		t.Errorf("a warm sweep job allocated %.1f heap objects, ceiling %d", perJob, warmJobCeiling)
	}
}
