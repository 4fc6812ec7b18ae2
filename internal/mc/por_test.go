package mc

import (
	"slices"
	"testing"

	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
)

// porEquivCases lists every configuration small enough to run both the
// full enumeration and the reduced one within the test budget. The table
// deliberately spans the axes the independence relation reasons about:
// single block (nothing independent — the reduction must degrade to the
// full run), hardware blocks on distinct homes (maximal independence),
// software blocks sharing a home (trap coupling forbids sleeping),
// mixed per-block overrides, and the watch alphabet.
func porEquivCases() []Config {
	return []Config{
		// Degenerate: one block, nothing commutes. POR must not prune a
		// single reachable state.
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 3},
		// Hardware blocks on distinct homes: the largest sound reduction.
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 2, MaxOps: 3},
		{Spec: proto.FullMap(), Nodes: 3, Blocks: 2, MaxOps: 2},
		{Spec: proto.FullMap(), Nodes: 3, Blocks: 3, MaxOps: 2},
		// LimitLESS: blocks trap on pointer overflow, so same-home blocks
		// must stay dependent.
		{Spec: proto.LimitLESS(2), Nodes: 2, Blocks: 2, MaxOps: 2},
		{Spec: proto.LimitLESS(1), Nodes: 2, Blocks: 3, MaxOps: 2},
		// Software-only: every miss traps; blocks 0 and 2 share home 0.
		{Spec: proto.SoftwareOnly(), Nodes: 2, Blocks: 3, MaxOps: 2},
		// Producer–consumer alphabet: watch re-arms schedule delayed
		// events, the one place simulated time advances.
		{Spec: proto.FullMap(), Nodes: 2, Blocks: 2, MaxOps: 2, Actions: watchActions()},
		// Mixed-spec machine: per-block Configure overrides feed
		// blockSpec, which feeds the softBlock table POR prunes by.
		{Spec: proto.LimitLESS(5), Nodes: 2, Blocks: 2, MaxOps: 2,
			Overrides: []proto.Spec{proto.FullMap(), proto.LimitLESS(1)}},
	}
}

// TestPOREquivalence is the soundness proof the reduction ships with:
// on every configuration small enough to run both, the sleep-set run
// must reach the identical verdict and the identical set of quiescent
// fingerprints as the full enumeration, while visiting no more states.
// (Transient states legitimately differ — pruning event orderings is
// the whole point — but once the event queue drains, the orderings that
// distinguished the pruned paths are gone, so the quiescent sets must
// match exactly.)
func TestPOREquivalence(t *testing.T) {
	for _, cfg := range porEquivCases() {
		cfg := cfg
		name := cfg.Spec.Name
		if len(cfg.Overrides) > 0 {
			name += "+overrides"
		}
		if slices.Contains(cfg.Actions, ActWatch) {
			name += "+watch"
		}
		t.Run(name, func(t *testing.T) {
			cfg.collectQuiescent = true
			full, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reduced := cfg
			reduced.POR = true
			por, err := Check(reduced)
			if err != nil {
				t.Fatal(err)
			}
			if full.Bounded || por.Bounded {
				t.Fatalf("equivalence needs exhausted runs (full bounded=%v, por bounded=%v)", full.Bounded, por.Bounded)
			}
			if (full.Violation == nil) != (por.Violation == nil) {
				t.Fatalf("verdicts differ: full %v, por %v", full.Violation, por.Violation)
			}
			if por.States > full.States {
				t.Fatalf("reduction grew the state space: %d > %d", por.States, full.States)
			}
			if por.Quiescent != full.Quiescent {
				t.Fatalf("quiescent counts differ: full %d, por %d", full.Quiescent, por.Quiescent)
			}
			if len(por.quiescentSet) != len(full.quiescentSet) {
				t.Fatalf("quiescent sets differ in size: full %d, por %d", len(full.quiescentSet), len(por.quiescentSet))
			}
			for k := range full.quiescentSet {
				if _, ok := por.quiescentSet[k]; !ok {
					t.Fatalf("quiescent fingerprint reached by full enumeration but not by POR:\n%s", k)
				}
			}
			t.Logf("full %d states / %d transitions; por %d states / %d transitions, %d slept (%.2fx states)",
				full.States, full.Transitions, por.States, por.Transitions, por.SleptTransitions,
				float64(full.States)/float64(por.States))
		})
	}
}

// TestPOREquivalenceUnderFault checks the verdict half of the
// equivalence on a run that actually violates: a seeded
// invalidation-drop must be caught by the reduced run too, as the same
// invariant.
func TestPOREquivalenceUnderFault(t *testing.T) {
	base := Config{Spec: proto.FullMap(), Nodes: 2, Blocks: 2, MaxOps: 2}
	base.Fault = proto.Fault{Kind: proto.MsgINV, Nth: 1}
	full, err := Check(base)
	if err != nil {
		t.Fatal(err)
	}
	reduced := base
	reduced.POR = true
	por, err := Check(reduced)
	if err != nil {
		t.Fatal(err)
	}
	if full.Violation == nil || por.Violation == nil {
		t.Fatalf("seeded fault not caught: full %v, por %v", full.Violation, por.Violation)
	}
	if full.Violation.Invariant != por.Violation.Invariant {
		t.Fatalf("verdicts name different invariants: full %q, por %q",
			full.Violation.Invariant, por.Violation.Invariant)
	}
}

// TestPORNegativeFixture proves the equivalence test has teeth by
// breaking the reduction on purpose. The fixture installs a
// plausible-sounding but unsound independence relation — ops whose
// blocks share a home node are declared independent, on the bogus
// theory that the home serializes them anyway — and checks that the
// reduced run under-explores: same-home includes same-block, so the
// sleep sets prune reorderings of operations on one block, which do not
// commute, and quiescent states reachable only through the pruned
// orders go missing. If this fixture ever stops failing the
// equivalence criteria, the criteria have gone soft.
func TestPORNegativeFixture(t *testing.T) {
	cfg := Config{Spec: proto.FullMap(), Nodes: 2, Blocks: 1, MaxOps: 3, collectQuiescent: true}
	full, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unsound := cfg
	unsound.POR = true
	unsound.independence = func(a, b int) bool {
		return a%unsound.Nodes == b%unsound.Nodes // same home ⇒ "independent": wrong
	}
	por, err := Check(unsound)
	if err != nil {
		t.Fatal(err)
	}
	if por.SleptTransitions == 0 {
		t.Fatal("unsound relation slept nothing; fixture is inert")
	}
	var missing int
	for k := range full.quiescentSet {
		if _, ok := por.quiescentSet[k]; !ok {
			missing++
		}
	}
	if missing == 0 && por.States == full.States {
		t.Fatalf("unsound independence relation was not detected: por explored %d states and every quiescent fingerprint", por.States)
	}
	t.Logf("unsound reduction under-explored as required: %d states (full %d), %d quiescent fingerprints missed",
		por.States, full.States, missing)
}

// TestPORSmoke pins the reduced-run counts on two fast configurations.
// SleptTransitions is pinned too: it is the reduction's observable
// output, and a silent change in what gets slept is exactly the kind of
// drift the smoke gate exists to catch.
func TestPORSmoke(t *testing.T) {
	cases := []struct {
		cfg    Config
		states uint64
		trans  uint64
		slept  uint64
		quiet  uint64
	}{
		{Config{Spec: proto.LimitLESS(2), Nodes: 2, Blocks: 2, MaxOps: 2, POR: true},
			1235, 1700, 144, 91},
		{Config{Spec: proto.FullMap(), Nodes: 3, Blocks: 2, MaxOps: 2, POR: true},
			2986, 4041, 324, 184},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cfg.Spec.Name, func(t *testing.T) {
			res, err := Check(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				text, _ := Explain(tc.cfg, res.Violation)
				t.Fatalf("invariant violated: %s\n%s", res.Violation, text)
			}
			if res.Bounded {
				t.Fatal("state space not exhausted")
			}
			if res.States != tc.states || res.Transitions != tc.trans ||
				res.SleptTransitions != tc.slept || res.Quiescent != tc.quiet {
				t.Fatalf("reduced-run counts moved: got %d states, %d transitions, %d slept, %d quiescent; want %d, %d, %d, %d",
					res.States, res.Transitions, res.SleptTransitions, res.Quiescent,
					tc.states, tc.trans, tc.slept, tc.quiet)
			}
		})
	}
}

// TestOpSetBits holds the sleep-set bitset to the op space validate
// admits: on the largest admitted machine every (node, block, action)
// gets its own bit inside the set, and one more node or block is
// rejected, so no admitted op can index past it.
func TestOpSetBits(t *testing.T) {
	for _, tc := range []struct {
		nodes, blocks int
		admitted      bool
	}{
		{2, 1, true},
		{maxNodes, maxBlocks, true},
		{maxNodes + 1, maxBlocks, false},
		{maxNodes, maxBlocks + 1, false},
	} {
		cfg := Config{Spec: proto.FullMap(), Nodes: tc.nodes, Blocks: tc.blocks, MaxOps: 1}
		if err := validate(cfg); (err == nil) != tc.admitted {
			t.Fatalf("%d nodes × %d blocks: validate error %v, want admitted=%v", tc.nodes, tc.blocks, err, tc.admitted)
		}
		if !tc.admitted {
			continue
		}
		owner := make(map[int]Op)
		for _, o := range allOps(tc.nodes, tc.blocks) {
			i := opBit(o)
			if i < 0 || i >= 64*len(opSet{}) {
				t.Fatalf("%+v: bit %d outside the %d-bit set", o, i, 64*len(opSet{}))
			}
			if prev, dup := owner[i]; dup {
				t.Fatalf("%+v and %+v share bit %d", prev, o, i)
			}
			owner[i] = o
		}
	}
}

// TestOpSetAlgebra checks has, subset and and against a map[Op]bool
// model on seeded random sets over the largest admitted op space.
func TestOpSetAlgebra(t *testing.T) {
	ops := allOps(maxNodes, maxBlocks)
	r := sim.NewRand(30)
	random := func() (opSet, map[Op]bool) {
		var s opSet
		m := make(map[Op]bool)
		keep := 1 + r.Intn(8) // densities from every op to about one in eight
		for _, o := range ops {
			if r.Intn(keep) == 0 {
				s.add(o)
				m[o] = true
			}
		}
		return s, m
	}
	for trial := 0; trial < 200; trial++ {
		a, am := random()
		b, bm := random()
		if trial%4 == 0 { // make a ⊆ b hold often enough to test both verdicts
			a = a.and(b)
			for o := range am {
				if !bm[o] {
					delete(am, o)
				}
			}
		}
		subset := true
		for o := range am {
			subset = subset && bm[o]
		}
		if got := a.subset(b); got != subset {
			t.Fatalf("trial %d: subset = %v, model says %v", trial, got, subset)
		}
		meet := a.and(b)
		for _, o := range ops {
			if a.has(o) != am[o] {
				t.Fatalf("trial %d: has(%+v) = %v, model says %v", trial, o, a.has(o), am[o])
			}
			if meet.has(o) != (am[o] && bm[o]) {
				t.Fatalf("trial %d: (a ∩ b).has(%+v) = %v, model says %v", trial, o, meet.has(o), am[o] && bm[o])
			}
		}
	}
}

// allOps lists every (node, block, action) of a machine.
func allOps(nodes, blocks int) []Op {
	var ops []Op
	for n := 0; n < nodes; n++ {
		for b := 0; b < blocks; b++ {
			for a := ActRead; a < numActions; a++ {
				ops = append(ops, Op{Node: mem.NodeID(n), Block: b, Act: a})
			}
		}
	}
	return ops
}
