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
// and it scans the machine for violations of the two properties every
// invalidation-based protocol must maintain:
//
//  1. Single writer: an Exclusive copy is the only copy.
//  2. Identical readers: all Shared copies of a block hold the same words.
//  3. Directory–cache agreement: every cached copy is tracked by the home
//     (hardware pointer, local bit, software sharer list, broadcast bit,
//     or exclusive ownership) or has an invalidation already racing
//     toward it.
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

// verify scans every cache's view of block b.
func (c *Checker) verify(b mem.Block, context string) {
	c.Checks++
	var exclusiveAt []mem.NodeID
	var copies []mem.NodeID
	var shared []cache.Line
	var sharedAt []mem.NodeID
	for i := 0; i < c.f.Nodes(); i++ {
		id := mem.NodeID(i)
		l, ok := c.f.Cache(id).HasBlock(b)
		if !ok {
			continue
		}
		switch l.State {
		case cache.Invalid:
			// An invalid line holds no copy; nothing to cross-check.
		case cache.Exclusive:
			copies = append(copies, id)
			exclusiveAt = append(exclusiveAt, id)
		case cache.Shared:
			copies = append(copies, id)
			shared = append(shared, l)
			sharedAt = append(sharedAt, id)
		default:
			panic(fmt.Sprintf("proto: checker: unknown cache line state %d at node %d", l.State, id))
		}
	}
	if len(exclusiveAt) > 1 {
		panic(fmt.Sprintf("proto: coherence violation (%s): block %d exclusive at nodes %v at cycle %d",
			context, b, exclusiveAt, c.f.Engine.Now()))
	}
	if len(exclusiveAt) == 1 && len(copies) > 1 {
		panic(fmt.Sprintf("proto: coherence violation (%s): block %d exclusive at node %d but cached at %v at cycle %d",
			context, b, exclusiveAt[0], copies, c.f.Engine.Now()))
	}
	for i := 1; i < len(shared); i++ {
		if shared[i].Words != shared[0].Words {
			panic(fmt.Sprintf("proto: coherence violation (%s): block %d shared copies diverge (node %d has %v, node %d has %v) at cycle %d",
				context, b, sharedAt[0], shared[0].Words, sharedAt[i], shared[i].Words, c.f.Engine.Now()))
		}
	}
	if v := c.f.AgreementViolation(b); v != "" {
		panic(fmt.Sprintf("proto: coherence violation (%s): %s at cycle %d",
			context, v, c.f.Engine.Now()))
	}
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
	if n := len(f.inflight); n > 0 {
		return fmt.Sprintf("%d messages still in flight: %v", n, f.InFlight())
	}
	for i := 0; i < f.Nodes(); i++ {
		if n := f.caches[i].OutstandingTxns(); n > 0 {
			return fmt.Sprintf("node %d has %d outstanding miss transactions", i, n)
		}
		if n := f.caches[i].OutstandingDirect(); n > 0 {
			return fmt.Sprintf("node %d has %d outstanding direct accesses", i, n)
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
