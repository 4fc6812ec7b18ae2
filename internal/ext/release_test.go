package ext

import (
	"fmt"
	"slices"
	"testing"

	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
)

// releaseSpecs are the software-extended protocols the handlers serve.
var releaseSpecs = []proto.Spec{
	proto.LimitLESS(2), proto.LimitLESS(5), proto.OnePointer(proto.AckSW), proto.SoftwareOnly(),
}

const releaseNodes = 8

// exerciseHandlers applies n seeded random handler calls to h and returns
// a log of every cost and sharer list, ending with each node's resident
// entry count and free-list statistics.
func exerciseHandlers(h *Handlers, r *sim.Rand, n int) []string {
	log := make([]string, 0, n+releaseNodes)
	for i := 0; i < n; i++ {
		b := mem.Block(r.Intn(24))
		req := mem.NodeID(r.Intn(releaseNodes))
		switch r.Intn(4) {
		case 0:
			drained := make([]mem.NodeID, r.Intn(releaseNodes))
			for j := range drained {
				drained[j] = mem.NodeID(r.Intn(releaseNodes))
			}
			log = append(log, fmt.Sprintf("read overflow %d: %d", b, h.ReadOverflow(b, drained, req)))
		case 1:
			log = append(log, fmt.Sprintf("read batched %d: %d", b, h.ReadBatched(b, req)))
		case 2:
			log = append(log, fmt.Sprintf("write fault %d: %d", b, h.WriteFault(b, req, r.Intn(releaseNodes))))
		case 3:
			log = append(log, fmt.Sprintf("sharers %d: %v", b, h.SharersOf(b)))
		}
	}
	for i := range h.nodes {
		fl := h.nodes[i].fl
		log = append(log, fmt.Sprintf("node %d: resident %d allocs %d reuses %d", i, h.Resident(mem.NodeID(i)), fl.Allocs, fl.Reuses))
	}
	return log
}

// Property: after Release, the next Handlers built, for any protocol, are
// indistinguishable from Handlers on newly made hash tables: a second
// random sequence of handler calls costs the same and reports the same
// sharers on both.
func TestReleasedTablesAreFresh(t *testing.T) {
	reused := 0
	for seed := uint64(1); seed <= 60; seed++ {
		r := sim.NewRand(seed)
		first := releaseSpecs[r.Intn(len(releaseSpecs))]
		next := releaseSpecs[r.Intn(len(releaseSpecs))]

		h, err := New(releaseNodes, first, FlexibleC())
		if err != nil {
			t.Fatal(err)
		}
		released := h.nodes[0].table
		exerciseHandlers(h, r, 1+r.Intn(200))
		h.Release()

		got, err := New(releaseNodes, next, FlexibleC())
		if err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(got.nodes, func(n nodeSW) bool { return n.table == released }) {
			reused++
		}
		want, err := New(releaseNodes, next, FlexibleC())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.nodes {
			want.nodes[i].table = newHashTable(tableBuckets)
		}
		replay := r.Uint64()
		gotLog := exerciseHandlers(got, sim.NewRand(replay), 200)
		wantLog := exerciseHandlers(want, sim.NewRand(replay), 200)
		if !slices.Equal(gotLog, wantLog) {
			for i := range wantLog {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d: call %d on reused tables: %s, new tables: %s", seed, i, gotLog[i], wantLog[i])
				}
			}
		}
		got.Release()
		want.Release()
	}
	// The pool may drop tables (a GC cycle, or the race detector's
	// deliberate drops); the property is only tested when it does not.
	if reused == 0 {
		t.Fatal("no Handlers reused a released table")
	}
}

// TestReleasedHandlersPanic requires every handler call on released
// Handlers, and a second Release, to panic.
func TestReleasedHandlersPanic(t *testing.T) {
	uses := map[string]func(h *Handlers){
		"ReadOverflow": func(h *Handlers) { h.ReadOverflow(3, nil, 1) },
		"SharersOf":    func(h *Handlers) { h.SharersOf(3) },
		"WriteFault":   func(h *Handlers) { h.WriteFault(3, 1, 1) },
		"Release":      func(h *Handlers) { h.Release() },
	}
	for name, use := range uses {
		h, err := New(4, proto.LimitLESS(2), FlexibleC())
		if err != nil {
			t.Fatal(err)
		}
		h.ReadOverflow(3, []mem.NodeID{0, 2}, 1)
		h.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on released Handlers did not panic", name)
				}
			}()
			use(h)
		}()
	}
}
