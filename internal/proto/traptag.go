package proto

import (
	"fmt"

	"swex/internal/mem"
)

// trapKind identifies which software handler a pooled trapTag stands for,
// and so which completion runs when the handler finishes.
type trapKind uint8

const (
	// trapRead is the first read-overflow handler invocation on a block.
	trapRead trapKind = iota
	// trapReadBatch is a piggybacked request drained by a running read
	// handler.
	trapReadBatch
	// trapWFault is the software write-fault handler.
	trapWFault
	// trapLACK is the final-acknowledgment trap (S_NB,LACK).
	trapLACK
	// trapAck is a per-acknowledgment software trap (S_NB,ACK).
	trapAck
)

// trapTag is the inspection tag and delivery receiver (sim.Caller) of a
// scheduled software-handler completion. It is data only: the kind picks
// the completion, which re-looks-up the block's directory entry when it
// fires, so a pending handler can be fingerprinted and copied. Tags are
// pooled on the owning HomeCtl, so steady-state trap scheduling allocates
// nothing.
type trapTag struct {
	h    *HomeCtl
	kind trapKind
	b    mem.Block
	r    mem.NodeID
	// last marks the final acknowledgment of a trapAck.
	last bool
	// targets is the invalidation target set of a trapWFault. The slice
	// belongs to the home's invalidation pool and is released by the
	// completion once the invalidations are sent.
	targets []mem.NodeID
	next    *trapTag // free-list link
}

// Fire runs the handler completion, returning the tag to its
// controller's free list first so nested traps can reuse the slot.
func (t *trapTag) Fire() {
	h, kind, b, r, last, targets := t.h, t.kind, t.b, t.r, t.last, t.targets
	t.targets, t.next, h.trapFree = nil, h.trapFree, t
	e := h.entry(b)
	switch kind {
	case trapRead, trapReadBatch:
		h.swReadDone(b, e, r)
	case trapWFault:
		h.swWriteFaultDone(b, e, r, targets)
	case trapLACK:
		// S_NB,LACK: the software transmits the data to the requester.
		h.grantWrite(b, e, e.Req)
	case trapAck:
		// S_NB,ACK: the final acknowledgment's handler transmits the data.
		if last {
			h.grantWrite(b, e, e.Req)
		}
	default:
		panic("proto: unknown trap kind")
	}
}

// label renders the tag for counterexample narration.
func (t *trapTag) label() string {
	switch t.kind {
	case trapRead:
		return fmt.Sprintf("trap:read:%d:blk%d:r%d", t.h.node, t.b, t.r)
	case trapReadBatch:
		return fmt.Sprintf("trap:readbatch:%d:blk%d:r%d", t.h.node, t.b, t.r)
	case trapWFault:
		return fmt.Sprintf("trap:wfault:%d:blk%d:r%d:t%v", t.h.node, t.b, t.r, t.targets)
	case trapLACK:
		return fmt.Sprintf("trap:lack:%d:blk%d", t.h.node, t.b)
	case trapAck:
		return fmt.Sprintf("trap:ack:%d:blk%d:last=%v", t.h.node, t.b, t.last)
	default:
		panic(fmt.Sprintf("proto: unknown trap kind %d", int(t.kind)))
	}
}

// grabTrap takes a tag from the free list (or allocates on first use)
// and stamps it with the handler's identity. Kind-specific fields (last,
// targets) are reset here and set by the caller when relevant.
func (h *HomeCtl) grabTrap(kind trapKind, b mem.Block, r mem.NodeID) *trapTag {
	t := h.trapFree
	if t != nil {
		h.trapFree = t.next
	} else {
		t = &trapTag{h: h}
	}
	t.kind, t.b, t.r = kind, b, r
	t.last = false
	t.targets = nil
	t.next = nil
	return t
}
