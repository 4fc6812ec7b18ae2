// The allocs-per-run ratchet for the extension handlers: once warm,
// enumerating a wide entry's sharers and recycling a spilled entry
// through a read overflow and a write fault allocate nothing. Excluded
// under the race detector, whose instrumentation allocates on its own
// account.
//
//go:build !race

package ext

import (
	"testing"

	"swex/internal/mem"
	"swex/internal/proto"
)

// allocCeiling is the committed ratchet: average heap allocations per
// workload in steady state. Raising it requires editing this constant in
// a reviewed change.
const allocCeiling = 0

func TestSteadyStateHandlerAllocs(t *testing.T) {
	const nodes = 64
	h, err := New(nodes, proto.SoftwareOnly(), FlexibleC())
	if err != nil {
		t.Fatal(err)
	}
	b := mem.Block(5)
	drained := make([]mem.NodeID, 15)
	for i := range drained {
		drained[i] = mem.NodeID(4 * i)
	}
	const requester = 3
	h.ReadOverflow(b, drained, requester) // a spilled 16-sharer entry

	sharers := func() {
		if got := h.SharersOf(b); len(got) != 16 {
			t.Fatalf("SharersOf = %v, want 16 sharers", got)
		}
	}
	sharers()
	if avg := testing.AllocsPerRun(200, sharers); avg > allocCeiling {
		t.Errorf("SharersOf allocates %.2f per call, ceiling %d", avg, allocCeiling)
	}

	// The ledger appends one record per handler; its amortized growth is
	// the only allocation left, and it averages out to zero per cycle.
	cycle := func() {
		h.WriteFault(b, requester, 16)
		h.ReadOverflow(b, drained, requester)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg > allocCeiling {
		t.Errorf("write-fault/read-overflow cycle allocates %.2f per run, ceiling %d", avg, allocCeiling)
	}
	if h.nodes[mem.HomeOfBlock(b)].fl.Allocs != 1 {
		t.Fatalf("free list allocated %d entries, want 1", h.nodes[mem.HomeOfBlock(b)].fl.Allocs)
	}
}
