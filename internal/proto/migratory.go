package proto

import (
	"swex/internal/dir"
	"swex/internal/mem"
)

// Migratory-data detection (paper Section 7, "dynamic detection": a
// hardware mechanism that dynamically adapts to migratory data — Cox &
// Fowler, Stenström et al. — which "protocol extension software could
// perform similar optimizations" to).
//
// A block is migratory when it travels read-modify-write from node to
// node: each node reads it, updates it, and the next node does the same.
// The standard protocol costs two full transactions per hop (a recall for
// the read, then an upgrade for the write). The detector watches write
// requests: a write from the block's sole reader, when the previous writer
// was a different node, is migratory evidence. After two consecutive
// pieces of evidence the block is marked migratory and subsequent reads
// are granted Exclusive ownership directly, eliminating the upgrade.
//
// Mis-detections self-correct: if a read-granted owner gives the block
// back clean (the recall is answered with an ACK instead of a dirty
// UPDATE), the node never wrote, the Exclusive grant was wasted, and the
// block is demoted. A write that finds multiple sharers also demotes.
type migState struct {
	lastWriter    mem.NodeID
	haveWriter    bool
	score         int
	migratory     bool
	lastGrantRead bool // the current Exclusive owner got it via a read
}

// migScoreThreshold is how many consecutive migratory episodes promote a
// block.
const migScoreThreshold = 2

// migFor returns the detector state for a block, allocating on first use.
func (h *HomeCtl) migFor(b mem.Block) *migState {
	st, ok := h.mig[b]
	if !ok {
		st = &migState{}
		h.mig[b] = st
	}
	return st
}

// migReadGrant reports whether a read of b should be served with an
// Exclusive grant, and records that it was. Only safe when no other copy
// exists (the entry is Uncached with no software extension).
func (h *HomeCtl) migReadGrant(b mem.Block, e *dir.Entry, spec Spec) bool {
	if !h.f.MigratoryDetect || spec.SoftwareOnly || spec.Broadcast {
		return false
	}
	if e.State != dir.Uncached || e.SwExt || e.LocalBit || e.Ptrs.Count() != 0 {
		return false
	}
	st, ok := h.mig[b]
	if !ok || !st.migratory {
		return false
	}
	st.lastGrantRead = true
	h.f.Counters.Inc(ctrMigReadGrants)
	return true
}

// migObserveWrite updates the detector at a write request against a block
// in a stable state.
func (h *HomeCtl) migObserveWrite(b mem.Block, e *dir.Entry, r mem.NodeID) {
	if !h.f.MigratoryDetect {
		return
	}
	st := h.migFor(b)
	st.lastGrantRead = false
	solo := e.State == dir.Shared && !e.SwExt && e.Ptrs.Count() == 1 &&
		e.Ptrs.Has(r) && !e.LocalBit
	if e.LocalBit && r == h.node && e.Ptrs.Count() == 0 && e.State == dir.Shared {
		solo = true
	}
	switch {
	case solo && st.haveWriter && st.lastWriter != r:
		st.score++
		if st.score >= migScoreThreshold {
			if !st.migratory {
				h.f.Counters.Inc(ctrMigPromotions)
			}
			st.migratory = true
		}
	case !solo:
		// Multiple sharers: not migratory behavior.
		st.score = 0
		st.migratory = false
	}
	st.lastWriter = r
	st.haveWriter = true
}

// migRecallClean demotes a block whose read-granted owner returned it
// clean: the Exclusive grant bought nothing.
func (h *HomeCtl) migRecallClean(b mem.Block) {
	if !h.f.MigratoryDetect {
		return
	}
	if st, ok := h.mig[b]; ok && st.lastGrantRead {
		st.score = 0
		st.migratory = false
		st.lastGrantRead = false
		h.f.Counters.Inc(ctrMigDemotions)
	}
}

// migRecallDirty confirms a read-granted owner did write.
func (h *HomeCtl) migRecallDirty(b mem.Block) {
	if !h.f.MigratoryDetect {
		return
	}
	if st, ok := h.mig[b]; ok {
		st.lastGrantRead = false
	}
}
