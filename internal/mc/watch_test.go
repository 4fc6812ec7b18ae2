package mc

import (
	"strings"
	"testing"

	"swex/internal/proto"
)

// watchActions is the watch alphabet: the default one plus ActWatch.
func watchActions() []Action { return append(DefaultActions(), ActWatch) }

// TestWatchSpectrumSmoke exhausts the smoke configuration with the Watch
// producer–consumer alphabet enabled, for every protocol in the spectrum,
// pinning the reachable-state counts. Watch is the only action that can
// leave an incomplete operation at quiescence (a parked consumer waiting
// on a producer that never came), so these runs also exercise the
// watcher-aware quiescence ledger and the lost-wakeup invariant on every
// quiescent state.
func TestWatchSpectrumSmoke(t *testing.T) {
	golden := map[string]Result{
		"DirnH0SNB,ACK":  {States: 11228, Transitions: 18149, MaxDepth: 27, Quiescent: 158},
		"DirnH1SNB,ACK":  {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
		"DirnH1SNB,LACK": {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
		"DirnH1SNB":      {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
		"DirnH2SNB":      {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
		"DirnH3SNB":      {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
		"DirnH4SNB":      {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
		"DirnH5SNB":      {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
		"DirnHNBS-":      {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
		"Dir1H1SB,LACK":  {States: 7544, Transitions: 12790, MaxDepth: 19, Quiescent: 105},
	}
	for _, spec := range append(proto.Spectrum(), proto.Dir1SW()) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg := smoke(spec)
			cfg.Actions = watchActions()
			res, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				text, _ := Explain(cfg, res.Violation)
				t.Fatalf("invariant violated: %s\n%s", res.Violation, text)
			}
			if res.Bounded {
				t.Fatalf("state space not exhausted at %d states", res.States)
			}
			want, ok := golden[spec.Name]
			if !ok {
				t.Fatalf("no golden for %s (got %d states, %d transitions, depth %d, %d quiescent)",
					spec.Name, res.States, res.Transitions, res.MaxDepth, res.Quiescent)
			}
			if res.States != want.States || res.Transitions != want.Transitions ||
				res.MaxDepth != want.MaxDepth || res.Quiescent != want.Quiescent {
				t.Fatalf("reachable-state counts moved: got %d states, %d transitions, depth %d, %d quiescent; want %d, %d, %d, %d",
					res.States, res.Transitions, res.MaxDepth, res.Quiescent,
					want.States, want.Transitions, want.MaxDepth, want.Quiescent)
			}
		})
	}
}

// TestWatchSameNodeProducer pins the local-wakeup path directly at the
// proto layer's contract: a consumer parked on a block wakes when a
// producer *on the same node* commits a store to it. The store is an
// exclusive-hit commit — no invalidation is generated — so the wakeup has
// to come from the cache controller's local-commit hook; losing it would
// surface as a lost-wakeup violation here.
func TestWatchSameNodeProducer(t *testing.T) {
	cfg := Config{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 3, Actions: watchActions()}
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		text, _ := Explain(cfg, res.Violation)
		t.Fatalf("invariant violated: %s\n%s", res.Violation, text)
	}
}

// TestWatchDropInvCounterexample seeds the lost-invalidation bug under a
// producer–consumer alphabet: with reads excluded, the only way a block
// becomes shared is a consumer's watch, so the BFS-shortest
// counterexample necessarily runs through the watch path, and the
// violation detail must name the watched block and the waiting node.
func TestWatchDropInvCounterexample(t *testing.T) {
	cfg := Config{
		Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 3,
		Actions: []Action{ActWrite, ActWatch},
	}
	// Lose the first invalidation and spoof its acknowledgment, as the
	// weakened litmus machine does. A bare drop is also caught, but its
	// BFS-shortest counterexample is a home left waiting for the missing
	// acknowledgment — a quiescence violation with no watcher involved.
	// With the acknowledgment spoofed the producer's write completes, so
	// the shortest violation is the consumer's stale Shared copy: the
	// producer–consumer race proper.
	cfg.Fault = proto.Fault{Kind: proto.MsgINV, Nth: 1, SpoofAck: true}
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("dropped invalidation not caught under the watch alphabet")
	}
	if res.Violation.Invariant != "agreement" {
		t.Fatalf("caught as %q, want agreement", res.Violation.Invariant)
	}
	var sawWatch bool
	for _, c := range res.Violation.Trace {
		if !c.Step && c.Op.Act == ActWatch {
			sawWatch = true
		}
	}
	if !sawWatch {
		t.Fatalf("shortest counterexample does not go through a watch: %v", res.Violation.Trace)
	}
	if !strings.Contains(res.Violation.Detail, "watcher on block") {
		t.Fatalf("violation detail does not name the stranded watcher: %s", res.Violation.Detail)
	}
	text, err := Explain(cfg, res.Violation)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"watch", "drop INV", "watcher on block"} {
		if !strings.Contains(text, want) {
			t.Fatalf("counterexample transcript missing %q:\n%s", want, text)
		}
	}
	t.Logf("trace length %d\n%s", len(res.Violation.Trace), text)
}

// TestMixedSpecMachine checks per-block Configure enumeration: a machine
// whose boot-time spec is five-pointer LimitLESS runs one block under a
// full-map override and one under one-pointer LimitLESS — three protocol
// engines on one directory fabric — against the same invariants.
func TestMixedSpecMachine(t *testing.T) {
	cfg := Config{
		Spec:      proto.LimitLESS(5),
		Nodes:     2,
		Blocks:    2,
		MaxOps:    2,
		Overrides: []proto.Spec{proto.FullMap(), proto.LimitLESS(1)},
	}
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		text, _ := Explain(cfg, res.Violation)
		t.Fatalf("invariant violated: %s\n%s", res.Violation, text)
	}
	if res.Bounded {
		t.Fatal("state space not exhausted")
	}
}

// TestOverrideValidation checks that inexpressible overrides are rejected
// exactly as on the real machine: a software-only override needs the
// machine's software to be the software-only handler set, and a machine
// without software at all cannot host any software-backed override.
func TestOverrideValidation(t *testing.T) {
	cases := []Config{
		// Software-only override on a LimitLESS machine: incompatible handler sets.
		{Spec: proto.LimitLESS(5), Nodes: 2, Blocks: 1, MaxOps: 1,
			Overrides: []proto.Spec{proto.SoftwareOnly()}},
		// LimitLESS override on a full-map machine: no software installed.
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 1,
			Overrides: []proto.Spec{proto.LimitLESS(2)}},
		// More overrides than blocks.
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 1,
			Overrides: []proto.Spec{{}, proto.FullMap()}},
	}
	for _, cfg := range cases {
		if _, err := Check(cfg); err == nil {
			t.Errorf("Check(%+v) accepted an inexpressible override", cfg)
		}
	}
}

// TestAlphabetValidation exercises Config.Actions rejection.
func TestAlphabetValidation(t *testing.T) {
	cases := []Config{
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 1, Actions: []Action{}},
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 1, Actions: []Action{Action(99)}},
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 1, Actions: []Action{ActRead, ActRead}},
	}
	for _, cfg := range cases {
		if _, err := Check(cfg); err == nil {
			t.Errorf("Check(%+v) accepted an invalid alphabet", cfg)
		}
	}
}
