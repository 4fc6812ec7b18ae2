package mc

import "swex/internal/mem"

// This file implements sleep-set partial-order reduction over the
// copy-based fork engine.
//
// The full enumeration explores every interleaving of enabled choices,
// but many interleavings are equivalent: two injections that touch
// different blocks — and cannot serialize against each other through a
// software trap on a shared home node — commute, so exploring "a then b"
// and "b then a" reaches the same states twice. Sleep sets prune the
// second order: when a state's choices are expanded in canonical order,
// each successor inherits a *sleep set* containing the injections whose
// alternate orderings an earlier sibling already covers, filtered down to
// the ones that commute with the choice just taken. A slept injection is
// not expanded again from that successor.
//
// # Independence
//
// Injections a and b are independent when
//
//	block(a) != block(b)  AND
//	(home(block(a)) != home(block(b))  OR  neither block's spec uses software)
//
// Different blocks never share cache or directory state (worlds allocate
// tracked blocks into distinct cache sets, so cross-block displacement is
// impossible), and at zero latency the only cross-block coupling left is
// the software trap scheduler: handlers for two blocks homed on the same
// node share that node's trap servicing, and a directory-overflow trap
// for one block can reorder against the other's. Hardware-only specs
// never trap, so same-home hardware blocks stay independent.
//
// Firing an engine event is treated like an operation on the block its
// inspection tag names (proto.Fabric.NextEventBlock); an event whose tag
// identifies no block conservatively clears the sleep set.
//
// # Soundness
//
// The per-block invariants (single-writer, identical-readers, agreement)
// are insensitive to the orderings sleep sets prune: a pruned
// interleaving permutes independent transitions of an explored one, and
// every intermediate state it visits projects, block by block, onto a
// state the explored interleaving visits. Quiescent states are preserved
// exactly — once the event queue drains, the transient event orderings
// that distinguish the permuted paths are gone — so the reduced run
// reaches the identical set of quiescent fingerprints and the identical
// verdict. TestPOREquivalence checks both properties against the full
// enumeration on every configuration small enough to run both.
//
// # Bookkeeping
//
// A sleep set is an opSet: one bit per (node, block, action), so
// membership is a bit test, ⊆ is a &^ b == 0 and ∩ is a & b. The search
// (mc.go) is one loop for both runs; without POR every sleep set is
// empty. The visited set maps fingerprint → the sleep set the state was
// last expanded with. Reaching a visited state with a sleep set that is
// not a superset of the stored one means some ordering the earlier
// expansion slept is no longer covered; the state is re-expanded with the
// intersection (standard for sleep sets combined with state matching —
// monotone, so exploration terminates). Re-expansions revisit edges but
// never re-count the state. With empty sets every revisit is covered, so
// an unreduced run expands each state once.

// opSet is a set of operations, one bit per (node, block, action). The
// op space is bounded by validate at maxNodes × maxBlocks × numActions.
type opSet [(maxNodes*maxBlocks*int(numActions) + 63) / 64]uint64

// opBit is o's bit index in an opSet.
func opBit(o Op) int {
	return (int(o.Node)*maxBlocks+o.Block)*int(numActions) + int(o.Act)
}

// has reports o ∈ s.
func (s opSet) has(o Op) bool {
	i := opBit(o)
	return s[i/64]&(1<<(i%64)) != 0
}

// add puts o in s.
func (s *opSet) add(o Op) {
	i := opBit(o)
	s[i/64] |= 1 << (i % 64)
}

// subset reports s ⊆ t.
func (s opSet) subset(t opSet) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// and returns s ∩ t.
func (s opSet) and(t opSet) opSet {
	for i := range s {
		s[i] &= t[i]
	}
	return s
}

// or returns s ∪ t.
func (s opSet) or(t opSet) opSet {
	for i := range s {
		s[i] |= t[i]
	}
	return s
}

// commuting is the run's independence relation as op sets: element b
// holds every op on a tracked block independent of tracked block b.
type commuting []opSet

func newCommuting(cfg Config) commuting {
	com := make(commuting, cfg.Blocks)
	for a := range com {
		for b := 0; b < cfg.Blocks; b++ {
			if !independentBlocks(cfg, a, b) {
				continue
			}
			for n := 0; n < cfg.Nodes; n++ {
				for act := ActRead; act < numActions; act++ {
					com[a].add(Op{Node: mem.NodeID(n), Block: b, Act: act})
				}
			}
		}
	}
	return com
}

// independentBlocks is the independence relation over tracked-block
// indices (see the file comment for the argument).
func independentBlocks(cfg Config, a, b int) bool {
	if cfg.independence != nil {
		return cfg.independence(a, b)
	}
	if a == b {
		return false
	}
	if a%cfg.Nodes != b%cfg.Nodes { // block i is homed on node i mod Nodes
		return true
	}
	return !cfg.blockSpec(a).UsesSoftware() && !cfg.blockSpec(b).UsesSoftware()
}

// succSleep builds the successor's sleep set after taking choice c from a
// state with sleep set sleep, where prior holds the injections already
// expanded at this state (their orderings are covered by the siblings):
// the ops of either set that commute with c. scopeBlock is the
// tracked-block index c operates on, or -1 when c is an event whose scope
// is unknown (conservative: sleeps nothing).
func (com commuting) succSleep(sleep, prior opSet, scopeBlock int) opSet {
	if scopeBlock < 0 {
		return opSet{}
	}
	return sleep.or(prior).and(com[scopeBlock])
}

// scopeOf resolves the tracked-block index a choice operates on in world
// w (before the choice is applied), or -1 when it cannot be identified.
func (w *world) scopeOf(c Choice) int {
	if !c.Step {
		return c.Op.Block
	}
	b, ok := w.fabric.NextEventBlock()
	if !ok {
		return -1
	}
	bi, tracked := w.blockIdx[b]
	if !tracked {
		return -1
	}
	return bi
}
