// The allocation ceilings of whole runs: heap objects allocated inside
// Machine.Run, counted, for seven runs that between them drive the engine,
// the mesh, the caches and instruction fetch, the directory, software
// traps, acknowledgment traps, BUSY retries, broadcast and watch. A change
// that adds one allocation per message, per trap or per miss moves a
// count by thousands and fails here; an allocation on a panic or error
// path never runs and moves nothing. Excluded under the race detector,
// whose instrumentation allocates on its own account.
//
//go:build !race

package machine_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"swex/internal/apps"
	"swex/internal/machine"
	"swex/internal/proto"
)

// runAllocCeilings holds each run's committed ceiling: the highest count
// measured over six processes when it was set (Go 1.24, linux/amd64),
// plus 1% or 20 objects, whichever is more, rounded up to ten. Counts
// repeat within about 20 objects from one process to the next. Raising a ceiling
// requires editing it in a reviewed change that says which allocation it
// admits; a change that removes allocations lowers the ceilings it moves.
var runAllocCeilings = []struct {
	name    string
	spec    proto.Spec
	program apps.Program
	ceiling uint64
}{
	{"worker/full-map", proto.FullMap(), worker(), 710},
	{"worker/limitless-5", proto.LimitLESS(5), worker(), 3_580},
	{"worker/one-pointer-ack", proto.OnePointer(proto.AckSW), worker(), 11_800},
	{"worker/software-only", proto.SoftwareOnly(), worker(), 1_200},
	{"worker/dir1sw", proto.Dir1SW(), worker(), 870},
	{"tsp/full-map", proto.FullMap(), apps.QuickRegistry()[0], 510},
	{"tsp/limitless-5", proto.LimitLESS(5), apps.QuickRegistry()[0], 910},
}

func worker() apps.Program { return apps.Worker(apps.WorkerParams{SetSize: 8, Iters: 20}) }

// TestRunAllocCeilings runs each case once to warm the process up, then
// counts the heap objects one run on a fresh 16-node machine allocates
// between the start and the end of Machine.Run. runtime.MemStats counts
// the whole process, so the test never runs in parallel with another.
// The collector is off across both runs: two collections between them
// would empty the processor thread pool the warm-up filled, and the
// count would depend on when the collector ran.
func TestRunAllocCeilings(t *testing.T) {
	const nodes = 16
	for _, c := range runAllocCeilings {
		t.Run(c.name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run := func() (mallocs, events uint64) {
				m := machine.MustNew(machine.DefaultConfig(nodes, c.spec))
				inst := c.program.Setup(m)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := m.Run(inst.Thread, 0)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs, m.Engine.Fired()
			}
			run()
			mallocs, events := run()
			t.Logf("%d mallocs in Run, %d events, %.4f mallocs/event (ceiling %d)",
				mallocs, events, float64(mallocs)/float64(events), c.ceiling)
			if mallocs > c.ceiling {
				t.Errorf("Run allocated %d heap objects, ceiling %d", mallocs, c.ceiling)
			}
		})
	}
}
