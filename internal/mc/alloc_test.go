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
// materializing frontier worlds with path.at, listing their choices into
// a reused buffer, and forking and stepping their successors allocate
// nothing: every copy reuses a spare world's storage, down to the cache
// controllers' transaction records and parked-watcher lists and the
// directories' tables. The watch configuration parks, wakes and re-arms
// watchers on the way.
func TestPathForksWithoutAllocating(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Spec: proto.LimitLESS(5), Nodes: 2, Blocks: 2, MaxOps: 3}},
		{"watch", Config{Spec: proto.OnePointer(proto.AckLACK), Nodes: 2, Blocks: 1, MaxOps: 3, Actions: watchActions()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			order := walkPath(t, tc.cfg, func([]Choice, *world) {})
			root, err := newWorld(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := newPath(root)
			var choices []Choice
			pass := func() {
				for _, trace := range order {
					parent, err := p.at(trace)
					if err != nil {
						t.Fatal(err)
					}
					choices = parent.choices(choices[:0])
					for i, c := range choices {
						cw, err := p.successor(parent, i == len(choices)-1)
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
		})
	}
}
