// Excluded under the race detector, whose instrumentation allocates on
// its own account.
//
//go:build !race

package mc

import (
	"testing"

	"swex/internal/proto"
)

// TestPathForksWithoutAllocating requires that, once a run is warm,
// materializing frontier worlds with path.at and forking and stepping
// their successors allocate nothing: every copy reuses a spare world's
// storage, down to the cache controllers' transaction records and the
// directories' tables.
func TestPathForksWithoutAllocating(t *testing.T) {
	cfg := Config{Spec: proto.LimitLESS(5), Nodes: 2, Blocks: 2, MaxOps: 3}
	order := walkPath(t, cfg, false, func([]Choice, *world) {})
	root, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := newPath(root)
	pass := func() {
		for _, n := range order {
			parent, err := p.at(n.trace)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range n.choices {
				cw, err := p.successor(parent, i == len(n.choices)-1)
				if err != nil {
					t.Fatal(err)
				}
				cw.apply(c)
				p.free(cw)
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Fatalf("a warm pass over %d frontier worlds allocated %.0f objects, want 0", len(order), allocs)
	}
}
