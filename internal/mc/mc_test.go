package mc

import (
	"strings"
	"testing"

	"swex/internal/proto"
)

// smoke is the bounded configuration wired into `make check`: 2 nodes, 1
// block, 3 operations. Small enough to exhaust in milliseconds per
// protocol, deep enough to cover fills, upgrades, invalidation rounds,
// write-backs, busy retries, and software trap chains.
func smoke(spec proto.Spec) Config {
	return Config{Spec: spec, Nodes: 2, Blocks: 1, MaxOps: 3}
}

// TestSpectrumSmoke exhausts the smoke configuration for every protocol in
// the paper's spectrum and checks the reachable-state counts against
// goldens. The goldens pin the exploration itself: a protocol change that
// adds or removes reachable states shows up here even when no invariant
// breaks, and nondeterminism anywhere in the stack would make the counts
// flap. With two nodes no directory overflows (local bit plus one pointer
// suffice), so every hardware-extended protocol collapses to the same
// transition system and only the software-only directory — where every
// read traps — differs.
func TestSpectrumSmoke(t *testing.T) {
	golden := map[string]Result{
		"DirnH0SNB,ACK":  {States: 4639, Transitions: 7501, MaxDepth: 21, Quiescent: 97},
		"DirnH1SNB,ACK":  {States: 3353, Transitions: 5615, MaxDepth: 18, Quiescent: 69},
		"DirnH1SNB,LACK": {States: 3353, Transitions: 5615, MaxDepth: 18, Quiescent: 69},
		"DirnH1SNB":      {States: 3353, Transitions: 5615, MaxDepth: 18, Quiescent: 69},
		"DirnH2SNB":      {States: 3353, Transitions: 5615, MaxDepth: 18, Quiescent: 69},
		"DirnH3SNB":      {States: 3353, Transitions: 5615, MaxDepth: 18, Quiescent: 69},
		"DirnH4SNB":      {States: 3353, Transitions: 5615, MaxDepth: 18, Quiescent: 69},
		"DirnH5SNB":      {States: 3353, Transitions: 5615, MaxDepth: 18, Quiescent: 69},
		"DirnHNBS-":      {States: 3353, Transitions: 5615, MaxDepth: 18, Quiescent: 69},
	}
	for _, spec := range proto.Spectrum() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := Check(smoke(spec))
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				text, _ := Explain(smoke(spec), res.Violation)
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

// TestDir1SWSmoke covers the cooperative-shared-memory variant, which is
// not part of Spectrum().
func TestDir1SWSmoke(t *testing.T) {
	res, err := Check(smoke(proto.Dir1SW()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("invariant violated: %s", res.Violation)
	}
	if res.States != 3353 {
		t.Fatalf("got %d states, want 3353", res.States)
	}
}

// TestEnhancementsSmoke re-exhausts the smoke configuration with the
// Section 7 enhancements switched on: the adaptive paths (migratory
// Exclusive grants, batched read drains) must uphold the same invariants.
func TestEnhancementsSmoke(t *testing.T) {
	for _, spec := range []proto.Spec{proto.SoftwareOnly(), proto.LimitLESS(2), proto.FullMap()} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg := smoke(spec)
			cfg.MigratoryDetect = true
			cfg.BatchReads = true
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
		})
	}
}

// TestSeededDroppedInvCaught seeds the classic lost-invalidation bug — the
// first INV message is silently dropped — and checks that the checker
// finds it, that BFS delivers the shortest counterexample, and that the
// replay renders the drop.
func TestSeededDroppedInvCaught(t *testing.T) {
	cfg := smoke(proto.FullMap())
	cfg.Fault = proto.Fault{Kind: proto.MsgINV, Nth: 1}
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("dropped invalidation not caught")
	}
	if res.Violation.Invariant != "agreement" {
		t.Fatalf("caught as %q, want agreement", res.Violation.Invariant)
	}
	// Shortest possible: fill a reader (read + 3 steps), inject the
	// conflicting write, deliver it, fire the handler that drops the INV.
	if got := len(res.Violation.Trace); got != 7 {
		t.Fatalf("counterexample has %d choices, want the 7-step shortest", got)
	}
	text, err := Explain(cfg, res.Violation)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "drop INV") {
		t.Fatalf("replay does not show the dropped invalidation:\n%s", text)
	}
}

// TestSeededDroppedAckCaught drops the first acknowledgment instead: the
// home then waits forever for an ack count that cannot reach zero, which
// the quiescence invariant reports once the event queue drains.
func TestSeededDroppedAckCaught(t *testing.T) {
	cfg := smoke(proto.FullMap())
	cfg.Fault = proto.Fault{Kind: proto.MsgACK, Nth: 1}
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("dropped acknowledgment not caught")
	}
	if res.Violation.Invariant != "quiescence" {
		t.Fatalf("caught as %q, want quiescence", res.Violation.Invariant)
	}
}

// TestConfigValidation exercises Check's configuration rejection.
func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Spec: proto.FullMap(), Nodes: 1, Blocks: 1, MaxOps: 1},
		{Spec: proto.FullMap(), Nodes: 9, Blocks: 1, MaxOps: 1},
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 0, MaxOps: 1},
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 5, MaxOps: 1},
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 0},
		{Spec: proto.Spec{Name: "bad", FullMap: true, SoftwareOnly: true}, Nodes: 2, Blocks: 1, MaxOps: 1},
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 1, MaxStates: -1},
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 1, Fault: proto.Fault{Kind: proto.MsgINV, Nth: -1}},
	}
	for _, cfg := range cases {
		if _, err := Check(cfg); err == nil {
			t.Errorf("Check(%+v) accepted an invalid configuration", cfg)
		}
	}
}

// TestMaxStatesBounds checks the frontier bound: a tiny cap must stop
// exploration and be reported.
func TestMaxStatesBounds(t *testing.T) {
	cfg := smoke(proto.FullMap())
	cfg.MaxStates = 10
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded {
		t.Fatal("bound not reported")
	}
	if res.States > 10 {
		t.Fatalf("visited %d states past the bound of 10", res.States)
	}
}

// TestTwoBlocks exercises a two-block alphabet (blocks homed on different
// nodes) at a shallower depth, covering cross-block interleavings and
// per-block home controllers.
func TestTwoBlocks(t *testing.T) {
	cfg := Config{Spec: proto.LimitLESS(2), Nodes: 2, Blocks: 2, MaxOps: 2}
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
