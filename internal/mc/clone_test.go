package mc

import (
	"bytes"
	"fmt"
	"testing"

	"swex/internal/proto"
)

// replay reconstructs the state reached by a trace on a fresh machine.
// Exploration forks by copy (path); replay is the independent oracle the
// tests hold copying to.
func replay(cfg Config, trace []Choice) (*world, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range trace {
		w.apply(c)
	}
	return w, nil
}

// TestCloneMatchesReplay holds forking by copy to the replay oracle. It
// walks every state of each smoke configuration breadth-first, keeping
// each state's world and the trace that reached it, and for every choice
// requires that copying the world and applying the choice gives the
// fingerprint and the choice list that replaying the extended trace on a
// fresh machine gives, and that the copy's step left the original's
// fingerprint alone. Copies go into one recycled world, so every check
// also exercises CloneInto overwriting an unrelated dead state.
func TestCloneMatchesReplay(t *testing.T) {
	h5 := proto.LimitLESS(5)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"full-map", Config{Spec: proto.FullMap(), Nodes: 2, Blocks: 2, MaxOps: 2}},
		{"limitless", Config{Spec: h5, Nodes: 2, Blocks: 2, MaxOps: 2}},
		{"software-only", smoke(proto.SoftwareOnly())},
		{"watch", Config{Spec: proto.OnePointer(proto.AckLACK), Nodes: 2, Blocks: 1, MaxOps: 3, Actions: watchActions()}},
		{"overrides", Config{Spec: h5, Nodes: 2, Blocks: 2, MaxOps: 2, Overrides: []proto.Spec{proto.FullMap()}}},
		{"mig-batch", Config{Spec: proto.OnePointer(proto.AckSW), Nodes: 3, Blocks: 1, MaxOps: 2, MigratoryDetect: true, BatchReads: true}},
		{"fault", Config{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 3,
			Fault: proto.Fault{Kind: proto.MsgINV, Nth: 1, SpoofAck: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			root, err := newWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			type state struct {
				w     *world
				trace []Choice
			}
			seen := map[string]bool{string(root.fingerprint(nil)): true}
			frontier := []state{{w: root}}
			var spare *world
			for len(frontier) > 0 {
				cur := frontier[0]
				frontier = frontier[1:]
				before := cur.w.fingerprint(nil)
				for _, c := range cur.w.choices(nil) {
					cw, err := cur.w.clone(spare)
					if err != nil {
						t.Fatal(err)
					}
					cw.apply(c)
					trace := append(append([]Choice{}, cur.trace...), c)
					rw, err := replay(cfg, trace)
					if err != nil {
						t.Fatal(err)
					}
					got, want := cw.fingerprint(nil), rw.fingerprint(nil)
					if !bytes.Equal(got, want) {
						t.Fatalf("after %v the copy fingerprints\n  %q\nbut replay gives\n  %q", trace, got, want)
					}
					if g, w := fmt.Sprint(cw.choices(nil)), fmt.Sprint(rw.choices(nil)); g != w {
						t.Fatalf("after %v the copy offers %s but replay offers %s", trace, g, w)
					}
					if after := cur.w.fingerprint(nil); !bytes.Equal(before, after) {
						t.Fatalf("stepping a copy of the state after %v changed the original", cur.trace)
					}
					if seen[string(want)] {
						spare = cw
						continue
					}
					seen[string(want)] = true
					frontier = append(frontier, state{w: rw, trace: trace})
					spare = cw
				}
			}
			t.Logf("%d states", len(seen))
		})
	}
}

// TestFaultProgressFingerprinted pins that a fault's progress is state.
// With a stale directory pointer, the first invalidation targets a node
// that holds no copy, so dropping it and spoofing its acknowledgment
// leaves exactly the protocol state that delivering it would. The two
// worlds below differ only in that one has used up its drop and the
// other can still drop the next invalidation, so they must not merge.
func TestFaultProgressFingerprinted(t *testing.T) {
	trace := []Choice{
		{Op: Op{Node: 1, Block: 0, Act: ActRead}},
		{Step: true}, {Step: true}, {Step: true},
		{Op: Op{Node: 1, Block: 0, Act: ActEvict}},
		{Op: Op{Node: 0, Block: 0, Act: ActWrite}},
	}
	final := func(nth int) *world {
		t.Helper()
		cfg := smoke(proto.FullMap())
		cfg.Fault = proto.Fault{Kind: proto.MsgINV, Nth: nth, SpoofAck: true}
		w, err := replay(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		for w.engine.Pending() > 0 {
			w.apply(Choice{Step: true})
		}
		if inv, d := w.invariantViolation(); inv != "" {
			t.Fatalf("drop %d: %s: %s", nth, inv, d)
		}
		return w
	}
	dropped, armed := final(1), final(2)
	if dropped.fabric.Counters.Get("msg.dropped") != 1 || armed.fabric.Counters.Get("msg.dropped") != 0 {
		t.Fatal("setup: the first world must drop the invalidation and the second deliver it")
	}
	if bytes.Equal(dropped.fingerprint(nil), armed.fingerprint(nil)) {
		t.Fatal("a world that used up its drop fingerprints like one that can still drop")
	}
	// Without the fault's progress the two states are the same.
	plain := func(w *world) []byte {
		w.fabric.Fault = proto.Fault{}
		return w.fingerprint(nil)
	}
	if !bytes.Equal(plain(dropped), plain(armed)) {
		t.Fatal("setup: the dropped invalidation changed protocol state")
	}
}
