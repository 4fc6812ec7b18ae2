package mc

import (
	"bytes"
	"testing"

	"swex/internal/proto"
)

// TestFingerprintSoundness checks the property the whole checker rests on:
// two traces that reach the same fingerprint must reach behaviorally
// equivalent states. It runs a BFS keeping fingerprint -> first trace;
// whenever a second trace rediscovers a fingerprint, both traces are
// replayed and their choice lists and every per-choice successor
// fingerprint are compared. A mismatch means the fingerprint abstraction
// is dropping behavior-relevant state, which would make exploration
// order-dependent and state merging unsound.
// The sweep runs every spec with the watch alphabet both off and on:
// watch states carry the extensions the fingerprint grew for them
// (parked-watcher details, waiter watch flags, relative firing deltas
// from the one-cycle re-arm), and each extension claims to distinguish
// exactly the states it must — this test is what holds it to that.
func TestFingerprintSoundness(t *testing.T) {
	for _, spec := range []proto.Spec{proto.SoftwareOnly(), proto.OnePointer(proto.AckLACK), proto.FullMap()} {
		for _, watch := range []bool{false, true} {
			name := spec.Name
			if watch {
				name += "+watch"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{Spec: spec, Nodes: 2, Blocks: 1, MaxOps: 3}
				if watch {
					cfg.Actions = watchActions()
				}
				first := make(map[string][]Choice)
				w, err := newWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				first[string(w.fingerprint(nil))] = nil
				frontier := [][]Choice{nil}
				for len(frontier) > 0 {
					cur := frontier[0]
					frontier = frontier[1:]
					pw, err := replay(cfg, cur)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range pw.choices(nil) {
						cw, err := replay(cfg, cur)
						if err != nil {
							t.Fatal(err)
						}
						cw.apply(c)
						trace := append(append([]Choice{}, cur...), c)
						key := string(cw.fingerprint(nil))
						if prev, seen := first[key]; seen {
							compareBehavior(t, cfg, prev, trace)
							continue
						}
						first[key] = trace
						frontier = append(frontier, trace)
					}
				}
			})
		}
	}
}

// compareBehavior replays two traces that fingerprinted identically and
// fails if the resulting worlds differ in enabled choices or in any
// successor fingerprint.
func compareBehavior(t *testing.T, cfg Config, a, b []Choice) {
	t.Helper()
	wa, err := replay(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := replay(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := wa.choices(nil), wb.choices(nil)
	if len(ca) != len(cb) {
		t.Fatalf("fingerprint collision: traces\n  %v\n  %v\nhave %d vs %d choices", a, b, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("fingerprint collision: traces\n  %v\n  %v\nchoice %d differs: %v vs %v", a, b, i, ca[i], cb[i])
		}
		sa, err := replay(cfg, append(append([]Choice{}, a...), ca[i]))
		if err != nil {
			t.Fatal(err)
		}
		sb, err := replay(cfg, append(append([]Choice{}, b...), cb[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa.fingerprint(nil), sb.fingerprint(nil)) {
			t.Fatalf("fingerprint collision: traces\n  %v\n  %v\ndiverge after %v:\n  %q\nvs\n  %q",
				a, b, ca[i], sa.fingerprint(nil), sb.fingerprint(nil))
		}
	}
}
