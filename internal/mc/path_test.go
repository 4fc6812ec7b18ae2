package mc

import (
	"bytes"
	"fmt"
	"testing"

	"swex/internal/proto"
)

// walkPath explores cfg's state space in search's frontier order,
// materializing every frontier node's world through one path exactly as
// search does, and calls visit with each world at returns. It returns
// the traces of the frontier nodes in the order they were materialized.
func walkPath(t *testing.T, cfg Config, visit func(trace []Choice, w *world)) [][]Choice {
	t.Helper()
	root, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{string(root.fingerprint(nil)): true}
	frontier := [][]Choice{nil}
	p := newPath(root)
	var order [][]Choice
	var choices []Choice
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		order = append(order, cur)
		parent, err := p.at(cur)
		if err != nil {
			t.Fatal(err)
		}
		visit(cur, parent)
		choices = parent.choices(choices[:0])
		for i, c := range choices {
			cw, err := p.successor(parent, i == len(choices)-1)
			if err != nil {
				t.Fatal(err)
			}
			cw.apply(c)
			if key := string(cw.fingerprint(nil)); !seen[key] {
				seen[key] = true
				frontier = append(frontier, extend(cur, c))
			}
			p.free(cw)
		}
	}
	return order
}

// TestPathMatchesReplay holds the fork stack to the replay oracle: every
// world path.at returns in breadth-first order must fingerprint and offer
// choices exactly as replaying its trace on a fresh machine does.
// TestCloneMatchesReplay covers one copy; this covers the stack's choice
// of which world to copy and the suffix it applies in place, including
// worlds an expansion's last successor took over.
func TestPathMatchesReplay(t *testing.T) {
	h5 := proto.LimitLESS(5)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"limitless-2n2b", Config{Spec: h5, Nodes: 2, Blocks: 2, MaxOps: 2}},
		{"software-only", smoke(proto.SoftwareOnly())},
		{"watch", Config{Spec: proto.OnePointer(proto.AckLACK), Nodes: 2, Blocks: 1, MaxOps: 3, Actions: watchActions()}},
		{"mig-batch", Config{Spec: proto.OnePointer(proto.AckSW), Nodes: 3, Blocks: 1, MaxOps: 2, MigratoryDetect: true, BatchReads: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/bfs", func(t *testing.T) {
			n := 0
			walkPath(t, tc.cfg, func(trace []Choice, w *world) {
				n++
				rw, err := replay(tc.cfg, trace)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := w.fingerprint(nil), rw.fingerprint(nil); !bytes.Equal(got, want) {
					t.Fatalf("at %v fingerprints\n  %q\nbut replay gives\n  %q", trace, got, want)
				}
				if g, w := fmt.Sprint(w.choices(nil)), fmt.Sprint(rw.choices(nil)); g != w {
					t.Fatalf("at %v offers %s but replay offers %s", trace, g, w)
				}
			})
			t.Logf("%d worlds", n)
		})
	}
}
