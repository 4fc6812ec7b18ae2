package proto

import (
	"fmt"

	"swex/internal/cache"
	"swex/internal/dir"
	"swex/internal/mem"
)

// Checker validates coherence invariants while a simulation runs. It is a
// verification harness, not part of the modeled machine: when enabled, the
// fabric calls it after every event that changes a block's cached state,
// and it scans the machine for violations of the properties every
// invalidation-based protocol must maintain, each a Fabric predicate the
// model checker evaluates too:
//
//  1. Single writer: an Exclusive copy is the only copy
//     (SingleWriterViolation).
//  2. Identical readers: all Shared copies of a block hold the same words
//     (IdenticalReadersViolation).
//  3. Directory–cache agreement: every cached copy is tracked by the home
//     (hardware pointer, local bit, software sharer list, broadcast bit,
//     or exclusive ownership) or has an invalidation already racing
//     toward it (AgreementViolation).
//
// Violations panic immediately with a full description — in a
// deterministic simulator the panic point is exactly reproducible, which
// is what makes the checker useful.
type Checker struct {
	f *Fabric
	// Checks counts invariant evaluations.
	Checks uint64
}

// newChecker attaches a checker to the fabric.
func newChecker(f *Fabric) *Checker { return &Checker{f: f} }

// verify checks the three invariants for block b.
func (c *Checker) verify(b mem.Block, context string) {
	c.Checks++
	v := c.f.SingleWriterViolation(b)
	if v == "" {
		v = c.f.IdenticalReadersViolation(b)
	}
	if v == "" {
		v = c.f.AgreementViolation(b)
	}
	if v != "" {
		panic(fmt.Sprintf("proto: coherence violation (%s): %s at cycle %d",
			context, v, c.f.Engine.Now()))
	}
}

// SingleWriterViolation checks the single-writer invariant for block b:
// an Exclusive copy must be the only copy anywhere. It returns a
// description of the violation, or "".
func (f *Fabric) SingleWriterViolation(b mem.Block) string {
	var exclusiveAt, copies []mem.NodeID
	for i, cc := range f.caches {
		l, ok := cc.HasBlock(b)
		if !ok || l.State == cache.Invalid {
			continue
		}
		copies = append(copies, mem.NodeID(i))
		if l.State == cache.Exclusive {
			exclusiveAt = append(exclusiveAt, mem.NodeID(i))
		}
	}
	if len(exclusiveAt) > 1 {
		return fmt.Sprintf("block %d exclusive at nodes %v", b, exclusiveAt)
	}
	if len(exclusiveAt) == 1 && len(copies) > 1 {
		return fmt.Sprintf("block %d exclusive at node %d but cached at %v",
			b, exclusiveAt[0], copies)
	}
	return ""
}

// IdenticalReadersViolation checks the identical-readers invariant for
// block b: all Shared copies must hold the same words. It returns a
// description of the first divergence, or "".
func (f *Fabric) IdenticalReadersViolation(b mem.Block) string {
	var first cache.Line
	var firstAt mem.NodeID
	found := false
	for i, cc := range f.caches {
		l, ok := cc.HasBlock(b)
		if !ok || l.State != cache.Shared {
			continue
		}
		if !found {
			first, firstAt, found = l, mem.NodeID(i), true
			continue
		}
		if l.Words != first.Words {
			return fmt.Sprintf("block %d shared copies diverge: node %d has %v, node %d has %v",
				b, firstAt, first.Words, i, l.Words)
		}
	}
	return ""
}

// AgreementViolation checks the directory–cache agreement invariant for
// block b and returns a description of the first violation, or "" if the
// directory accounts for every cached copy. A copy is accounted for when
// the home tracks it (hardware pointer, local bit for the home's own copy,
// software-extended sharer list, broadcast bit, or exclusive ownership
// during Exclusive/Recall) or when an invalidation for the block is
// already in flight toward the holder — the transient the protocol
// creates when it reassigns a block whose old copies it has already begun
// invalidating.
//
// Two windows are exempt by design:
//
//   - While the entry is in SWait the extension software owns the block
//     and hardware tracking is legitimately in flux (a write-fault
//     handler has already reclaimed the software list but not yet
//     transmitted its invalidations).
//   - Under the software-only directory, the home's own copies are
//     invisible until the remote-access bit is set (paper Section 2.3);
//     that blind spot is the protocol's, not a bug.
func (f *Fabric) AgreementViolation(b mem.Block) string {
	home := f.homes[mem.HomeOfBlock(b)]
	e, ok := home.dir.Peek(b)
	if !ok {
		e = &dir.Entry{}
	}
	if e.State == dir.SWait {
		return ""
	}
	spec := home.specFor(b)
	var soft map[mem.NodeID]bool
	if f.Soft != nil {
		soft = make(map[mem.NodeID]bool)
		for _, id := range f.Soft.SharersOf(b) {
			soft[id] = true
		}
	}
	for i := 0; i < f.Nodes(); i++ {
		id := mem.NodeID(i)
		l, cached := f.caches[i].HasBlock(b)
		if !cached || l.State == cache.Invalid {
			continue
		}
		if spec.SoftwareOnly && !e.RemoteBit && id == home.node {
			continue
		}
		tracked := e.Ptrs.Has(id) ||
			(e.LocalBit && id == home.node) ||
			e.BroadcastBit ||
			((e.State == dir.Exclusive || e.State == dir.Recall) && e.Owner == id) ||
			// An upgrading requester keeps its old Shared copy while the
			// home collects acknowledgments on its behalf; the entry's
			// request register is what tracks it.
			((e.State == dir.AckWait || e.State == dir.Recall) && e.Req == id) ||
			soft[id]
		if !tracked && !f.invInFlight(b, id) {
			return fmt.Sprintf("block %d cached at node %d (%s) but untracked by home (state %s, ptrs %v, localbit %v, soft %v, broadcast %v)",
				b, id, l.State, e.State, e.Ptrs.List(), e.LocalBit, f.softList(b), e.BroadcastBit)
		}
	}
	return ""
}

// QuiescenceViolation checks that a machine whose event queue has drained
// is actually at rest for the given blocks, returning a description of the
// first problem or "" when quiescent. A quiet machine must have no
// messages in flight, no outstanding miss transactions, no half-finished
// software handler bookkeeping, and every directory entry in a stable
// state — anything else means work was dropped or the protocol livelocked.
// The model checker asserts this at every reachable state with an empty
// event queue.
func (f *Fabric) QuiescenceViolation(blocks []mem.Block) string {
	if n := f.inflight.n; n > 0 {
		return fmt.Sprintf("%d messages still in flight: %v", n, f.InFlight())
	}
	for i := 0; i < f.Nodes(); i++ {
		if n := f.caches[i].OutstandingTxns(); n > 0 {
			return fmt.Sprintf("node %d has %d outstanding miss transactions", i, n)
		}
	}
	for _, b := range blocks {
		h := f.homes[mem.HomeOfBlock(b)]
		e, ok := h.dir.Peek(b)
		if !ok {
			continue
		}
		switch e.State {
		case dir.Uncached, dir.Shared, dir.Exclusive:
			// Stable.
		case dir.AckWait, dir.Recall, dir.SWait:
			return fmt.Sprintf("block %d directory entry stuck in %s", b, e.State)
		default:
			panic(fmt.Sprintf("proto: checker: unknown directory state %d", int(e.State)))
		}
		if n := h.reads[b].segs; n > 0 {
			return fmt.Sprintf("block %d has %d read-handler segments outstanding", b, n)
		}
		if r, queued := h.pendingWrite[b]; queued {
			return fmt.Sprintf("block %d has a queued write from node %d never serviced", b, r)
		}
	}
	return ""
}

// softList returns the software sharer list for diagnostics (nil without
// software).
func (f *Fabric) softList(b mem.Block) []mem.NodeID {
	if f.Soft == nil {
		return nil
	}
	return f.Soft.SharersOf(b)
}

// EnableChecker turns on invariant checking for this fabric. Expensive
// (a machine-wide scan per coherence event); intended for tests.
func (f *Fabric) EnableChecker() *Checker {
	f.checker = newChecker(f)
	return f.checker
}

// check is the fabric-internal hook; a nil checker costs one branch.
func (f *Fabric) check(b mem.Block, context string) {
	if f.checker != nil {
		f.checker.verify(b, context)
	}
}
