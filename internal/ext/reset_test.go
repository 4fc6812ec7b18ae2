package ext

import (
	"fmt"
	"slices"
	"testing"

	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/stats"
)

// resetSpecs are the software-extended protocols the handlers serve.
var resetSpecs = []proto.Spec{
	proto.LimitLESS(2), proto.LimitLESS(5), proto.OnePointer(proto.AckSW), proto.SoftwareOnly(),
}

// resetNodes are the machine sizes a reset moves between, so a reset
// keeps some tables and builds or drops others.
var resetNodes = []int{4, 8, 16}

// exerciseHandlers applies n seeded random handler calls to h and returns
// a log of every cost and sharer list, ending with each node's resident
// entry count and free-list statistics.
func exerciseHandlers(h *Handlers, r *sim.Rand, n int) []string {
	nodes := len(h.nodes)
	log := make([]string, 0, n+nodes+1)
	for i := 0; i < n; i++ {
		b := mem.Block(r.Intn(24))
		req := mem.NodeID(r.Intn(nodes))
		switch r.Intn(4) {
		case 0:
			drained := make([]mem.NodeID, r.Intn(nodes))
			for j := range drained {
				drained[j] = mem.NodeID(r.Intn(nodes))
			}
			log = append(log, fmt.Sprintf("read overflow %d: %d", b, h.ReadOverflow(b, drained, req)))
		case 1:
			log = append(log, fmt.Sprintf("read batched %d: %d", b, h.ReadBatched(b, req)))
		case 2:
			log = append(log, fmt.Sprintf("write fault %d: %d", b, h.WriteFault(b, req, r.Intn(nodes))))
		case 3:
			log = append(log, fmt.Sprintf("sharers %d: %v", b, h.SharersOf(b)))
		}
	}
	for i := range h.nodes {
		fl := h.nodes[i].fl
		log = append(log, fmt.Sprintf("node %d: resident %d allocs %d reuses %d", i, h.Resident(mem.NodeID(i)), fl.Allocs, fl.Reuses))
	}
	read, _ := h.Ledger.Median(stats.ReadRequest, -1)
	return append(log, fmt.Sprintf("ledger %d records, read mean %.3f, read median %+v",
		h.Ledger.N(), h.Ledger.Mean(stats.ReadRequest, -1), read))
}

// Property: after Reset, for any protocol and machine size, the
// handlers are indistinguishable from new ones: a second random sequence
// of handler calls costs the same, reports the same sharers and records
// the same ledger on both. A reset keeps the tables of the nodes both
// sizes have.
func TestResetHandlersAreFresh(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		r := sim.NewRand(seed)
		first, firstN := resetSpecs[r.Intn(len(resetSpecs))], resetNodes[r.Intn(len(resetNodes))]
		next, nextN := resetSpecs[r.Intn(len(resetSpecs))], resetNodes[r.Intn(len(resetNodes))]

		got, err := New(firstN, first, FlexibleC())
		if err != nil {
			t.Fatal(err)
		}
		table := got.nodes[0].table
		got.SetParallelInv(r.Intn(2) == 0)
		exerciseHandlers(got, r, 1+r.Intn(200))
		if err := got.Reset(nextN, next, FlexibleC()); err != nil {
			t.Fatal(err)
		}
		if got.nodes[0].table != table {
			t.Fatalf("seed %d: Reset replaced node 0's table", seed)
		}
		want, err := New(nextN, next, FlexibleC())
		if err != nil {
			t.Fatal(err)
		}
		replay := r.Uint64()
		gotLog := exerciseHandlers(got, sim.NewRand(replay), 200)
		wantLog := exerciseHandlers(want, sim.NewRand(replay), 200)
		if !slices.Equal(gotLog, wantLog) {
			for i := range wantLog {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d: call %d after Reset: %s, new handlers: %s", seed, i, gotLog[i], wantLog[i])
				}
			}
		}
	}
}

// TestResetRejectsWhatNewRejects requires Reset to refuse the
// configurations New refuses, and to leave the handlers unchanged.
func TestResetRejectsWhatNewRejects(t *testing.T) {
	h, err := New(4, proto.LimitLESS(5), TunedASM())
	if err != nil {
		t.Fatal(err)
	}
	h.ReadOverflow(3, []mem.NodeID{0, 2}, 1)
	_, newErr := New(4, proto.LimitLESS(2), TunedASM())
	resetErr := h.Reset(4, proto.LimitLESS(2), TunedASM())
	if newErr == nil || resetErr == nil || resetErr.Error() != newErr.Error() {
		t.Fatalf("Reset returned %v, New %v", resetErr, newErr)
	}
	if h.Ledger.N() != 1 || h.Resident(0) != 1 {
		t.Fatalf("a refused Reset changed the handlers: %d records, %d entries resident", h.Ledger.N(), h.Resident(0))
	}
}
