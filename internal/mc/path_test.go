package mc

import (
	"bytes"
	"fmt"
	"testing"

	"swex/internal/proto"
)

// pathStep is one frontier node as search meets it: the trace that
// reaches the state and the choices it is expanded with.
type pathStep struct {
	trace   []Choice
	choices []Choice
}

// walkPath explores cfg's state space in search's frontier order
// (depth-first when dfs is set), materializing every frontier node's
// world through one path exactly as search does, and calls visit with
// each world at returns. It returns the frontier nodes in the order they
// were materialized.
func walkPath(t *testing.T, cfg Config, dfs bool, visit func(trace []Choice, w *world)) []pathStep {
	t.Helper()
	root, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{string(root.fingerprint(nil)): true}
	frontier := []pathStep{{choices: root.choices()}}
	p := newPath(root)
	var order []pathStep
	for len(frontier) > 0 {
		var cur pathStep
		if dfs {
			cur, frontier = frontier[len(frontier)-1], frontier[:len(frontier)-1]
		} else {
			cur, frontier = frontier[0], frontier[1:]
		}
		order = append(order, cur)
		parent, err := p.at(cur.trace)
		if err != nil {
			t.Fatal(err)
		}
		visit(cur.trace, parent)
		for i, c := range cur.choices {
			cw, err := p.successor(parent, !dfs && i == len(cur.choices)-1)
			if err != nil {
				t.Fatal(err)
			}
			cw.apply(c)
			if key := string(cw.fingerprint(nil)); !seen[key] {
				seen[key] = true
				frontier = append(frontier, pathStep{trace: extend(cur.trace, c), choices: cw.choices()})
			}
			p.free(cw)
		}
	}
	return order
}

// TestPathMatchesReplay holds the fork stack to the replay oracle: under
// breadth-first and depth-first order, every world path.at returns must
// fingerprint and offer choices exactly as replaying its trace on a fresh
// machine does. TestCloneMatchesReplay covers one copy; this covers the
// stack's choice of which world to copy and the suffix it applies in
// place, including worlds a breadth-first expansion's last successor
// took over.
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
		for _, dfs := range []bool{false, true} {
			order := "bfs"
			if dfs {
				order = "dfs"
			}
			t.Run(tc.name+"/"+order, func(t *testing.T) {
				n := 0
				walkPath(t, tc.cfg, dfs, func(trace []Choice, w *world) {
					n++
					rw, err := replay(tc.cfg, trace)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := w.fingerprint(nil), rw.fingerprint(nil); !bytes.Equal(got, want) {
						t.Fatalf("at %v fingerprints\n  %q\nbut replay gives\n  %q", trace, got, want)
					}
					if g, w := fmt.Sprint(w.choices()), fmt.Sprint(rw.choices()); g != w {
						t.Fatalf("at %v offers %s but replay offers %s", trace, g, w)
					}
				})
				t.Logf("%d worlds", n)
			})
		}
	}
}
