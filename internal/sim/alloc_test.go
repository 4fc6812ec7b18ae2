// The allocs-per-op ratchet: steady-state event scheduling must stay
// allocation-free, measured at run time, so an interface box or a
// closure added to the scheduling path fails go test. Whole runs are held
// to their own ceilings in internal/machine. Excluded under the race
// detector, whose instrumentation allocates on its own account.
//
//go:build !race

package sim

import "testing"

// allocCeiling is the committed ratchet: average heap allocations per
// scheduled-and-fired event in steady state. The event pool and the
// Caller scheduling path make this exactly zero; raising it requires
// editing this constant in a reviewed change.
const allocCeiling = 0

type nopCaller struct{ fired int }

func (c *nopCaller) Fire() { c.fired++ }

// TestSteadyStateSchedulingAllocs drives a small fixed workload — pooled
// Caller events, unkeyed and owned — through the engine after a warm-up
// pass, and requires the average allocation count per workload to stay
// at the committed ceiling.
func TestSteadyStateSchedulingAllocs(t *testing.T) {
	e := NewEngine()
	e.SetStreams(make([]uint64, 2))
	c := &nopCaller{}
	workload := func() {
		e.AtCall(e.Now(), nil, c)
		e.AfterCall(1, nil, c)
		e.OwnedAtCall(1, e.Now(), nil, c)
		e.OwnedAfterCall(0, 2, c, c)
		if _, drained := e.Run(0); !drained {
			t.Fatal("queue did not drain")
		}
	}
	// Warm-up: populate the event free list and the heap's backing array
	// so the measured runs exercise steady state, not first-touch growth.
	workload()
	if avg := testing.AllocsPerRun(200, workload); avg > allocCeiling {
		t.Errorf("steady-state scheduling allocates %.2f per workload, ceiling %d", avg, allocCeiling)
	}
	if c.fired == 0 {
		t.Fatal("caller never fired")
	}
}
