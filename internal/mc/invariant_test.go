package mc

import (
	"fmt"
	"testing"

	"swex/internal/cache"
	"swex/internal/proto"
)

// quiesced replays trace on a fresh full-map smoke world and steps it
// until no event is pending, requiring every invariant to hold there.
func quiesced(t *testing.T, trace []Choice) *world {
	t.Helper()
	w, err := replay(smoke(proto.FullMap()), trace)
	if err != nil {
		t.Fatal(err)
	}
	for w.engine.Pending() > 0 {
		w.apply(Choice{Step: true})
	}
	if inv, d := w.invariantViolation(); inv != "" {
		t.Fatalf("setup: %s: %s", inv, d)
	}
	return w
}

// TestInvariantsReachCachedCopies drives a world to a coherent state,
// corrupts one node's cache behind the protocol's back, and requires the
// checker's invariant evaluation to name the per-block invariant that
// breaks, with the detail MODELCHECK.md §4.4 and §4.5 show. Protocol bugs
// that corrupt a read reply or grant a second exclusive copy are caught
// only through these two predicates, so each must be reachable from the
// model checker and not only from the runtime checker.
func TestInvariantsReachCachedCopies(t *testing.T) {
	t.Run("identical-readers", func(t *testing.T) {
		w := quiesced(t, []Choice{
			{Op: Op{Node: 0, Block: 0, Act: ActRead}},
			{Op: Op{Node: 1, Block: 0, Act: ActRead}},
		})
		b := w.blocks[0]
		l, ok := w.fabric.Cache(1).Cache().Lookup(b, false)
		if !ok || l.State != cache.Shared {
			t.Fatalf("setup: node 1 holds no shared copy of block %d", b)
		}
		l.Words[0] = 57005
		inv, d := w.invariantViolation()
		want := fmt.Sprintf("block %d shared copies diverge: node 0 has [0 0 0 0], node 1 has [57005 0 0 0]", b)
		if inv != "identical-readers" || d != want {
			t.Fatalf("invariantViolation() = %q, %q; want identical-readers, %q", inv, d, want)
		}
	})
	t.Run("single-writer", func(t *testing.T) {
		w := quiesced(t, []Choice{{Op: Op{Node: 0, Block: 0, Act: ActWrite}}})
		b := w.blocks[0]
		if l, ok := w.fabric.Cache(0).HasBlock(b); !ok || l.State != cache.Exclusive {
			t.Fatalf("setup: node 0 holds no exclusive copy of block %d", b)
		}
		w.fabric.Cache(1).Cache().Insert(cache.Line{Block: b, State: cache.Exclusive})
		inv, d := w.invariantViolation()
		want := fmt.Sprintf("block %d exclusive at nodes [0 1]", b)
		if inv != "single-writer" || d != want {
			t.Fatalf("invariantViolation() = %q, %q; want single-writer, %q", inv, d, want)
		}
	})
}
