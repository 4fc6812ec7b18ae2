// Excluded under the race detector, whose instrumentation allocates on its
// own account and whose pool drops some returned threads at random.
//
//go:build !race

package proc

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestWarmStartAllocatesNoThreads checks that starting and running a
// 4-node machine on threads a previous run returned to the pool allocates
// nothing: no record, Env, continuation or coroutine. The bodies only
// compute, so the fabric's own first-use allocations stay out of the
// count.
func TestWarmStartAllocatesNoThreads(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	body := func(env *Env) { env.Compute(5) }
	run := func() uint64 {
		engine, _, ns := rig(t, 4, true)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, n := range ns {
			n.Start(body)
		}
		ok := engine.RunUntil(func() bool {
			for _, n := range ns {
				if !n.Done() {
					return false
				}
			}
			return true
		}, 0)
		runtime.ReadMemStats(&after)
		if !ok {
			t.Fatal("threads did not complete")
		}
		return after.Mallocs - before.Mallocs
	}
	cold := run()
	t.Logf("first start and run: %d heap objects", cold)
	if warm := run(); warm != 0 {
		t.Fatalf("warm start and run allocated %d heap objects (cold: %d), want 0", warm, cold)
	}
}
