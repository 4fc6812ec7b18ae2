package proto

import (
	"encoding/binary"
	"fmt"
	"slices"

	"swex/internal/mem"
)

// Snapshot serializes the logically observable machine state for the given
// blocks into a canonical byte string: two machines with equal snapshots
// are in the same protocol state and, driven identically, will behave
// identically. The model checker (internal/mc) uses the snapshot as the
// key of its visited set.
//
// The encoding deliberately abstracts three things away so that logically
// identical states reached through different histories compare equal:
//
//   - Statistics (counters, trap counts, retry counts, worker-set maxima)
//     are excluded: they record history, not state. So are operation IDs
//     (Op.ID): they name an operation to its issuer, never steer the
//     protocol.
//   - Directory epochs are encoded relative to the entry's current epoch
//     (an in-flight acknowledgment matters only through whether its epoch
//     matches the entry's), so histories with different transaction counts
//     still merge.
//   - Event firing times are excluded: the checker runs the machine with
//     zero-latency timing (mesh.ZeroLatency, zero Timing), so simulated
//     time is frozen at cycle zero and only the firing *order* of pending
//     events — which the encoding preserves — determines behavior.
//
// Pending events appear through their receivers, which are also their
// inspection tags: in-flight messages, queued home processing, software
// handler completions, busy retries, watch re-reads and instruction
// fills.
//
// The encoding is binary: a type byte per item, unsigned varints for
// numbers and length prefixes for lists, so it is unambiguous. It is
// never persisted; only equality between snapshots of one build matters.
func (f *Fabric) Snapshot(blocks []mem.Block) []byte {
	return f.AppendSnapshot(nil, blocks)
}

// AppendSnapshot appends Snapshot's encoding to dst and returns the
// extended buffer. With blocks already in ascending order and a reused
// dst, it allocates nothing once the fabric's scratch space has grown.
func (f *Fabric) AppendSnapshot(dst []byte, blocks []mem.Block) []byte {
	if !slices.IsSorted(blocks) {
		blocks = slices.Clone(blocks)
		slices.Sort(blocks)
	}
	for _, b := range blocks {
		dst = f.snapBlock(dst, b)
	}
	for i := 0; i < f.Nodes(); i++ {
		dst = f.snapNode(dst, mem.NodeID(i), blocks)
	}
	dst = f.snapPending(dst)
	if f.Fault.Nth > 0 {
		// The fault's progress is state: a machine about to drop a
		// message and the same machine after the drop diverge.
		dst = append(dst, 'F')
		dst = putInt(dst, f.faultLeft())
	}
	return dst
}

// putUint appends an unsigned varint.
func putUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// putInt appends a signed varint.
func putInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

// putBool appends one byte, 1 for true.
func putBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// putWords appends a block's words.
func putWords(dst []byte, w *[mem.WordsPerBlock]uint64) []byte {
	for _, v := range w {
		dst = putUint(dst, v)
	}
	return dst
}

// putNodes appends a length-prefixed node list.
func putNodes(dst []byte, ids []mem.NodeID) []byte {
	dst = putInt(dst, len(ids))
	for _, id := range ids {
		dst = putInt(dst, int(id))
	}
	return dst
}

// putRMW appends an atomic operation.
func putRMW(dst []byte, r RMW) []byte {
	dst = append(dst, byte(r.Kind))
	if r.Kind != RMWNone {
		dst = putUint(dst, r.Arg)
	}
	return dst
}

// putWaiter appends one waiting operation: everything but its ID.
func putWaiter(dst []byte, w *pendingOp) []byte {
	dst = putUint(dst, uint64(w.addr))
	dst = putBool(dst, w.op.Write)
	dst = putUint(dst, w.op.Value)
	dst = putRMW(dst, w.op.RMW)
	dst = append(dst, byte(w.kind))
	if w.kind == waitWatch {
		dst = putUint(dst, w.old)
	}
	return dst
}

// snapBlock encodes the home-side state of one block.
func (f *Fabric) snapBlock(dst []byte, b mem.Block) []byte {
	h := f.homes[mem.HomeOfBlock(b)]
	dst = append(dst, 'B')
	dst = putUint(dst, uint64(b))
	if e, ok := h.dir.Peek(b); ok {
		dst = append(dst, 1)
		dst = putInt(dst, int(e.State))
		f.snapIDs = e.Ptrs.AppendTo(f.snapIDs[:0])
		dst = putNodes(dst, f.snapIDs)
		dst = putBool(dst, e.LocalBit)
		dst = putInt(dst, int(e.Owner))
		dst = putInt(dst, e.AckCount)
		dst = putInt(dst, int(e.Req))
		dst = putBool(dst, e.ReqWrite)
		dst = putBool(dst, e.SwExt)
		dst = putBool(dst, e.RemoteBit)
		dst = putBool(dst, e.BroadcastBit)
	} else {
		dst = append(dst, 0)
	}
	dst = putBool(dst, h.swTxn[b])
	dst = putInt(dst, h.reads[b].segs)
	if w, ok := h.pendingWrite[b]; ok {
		dst = append(dst, 1)
		dst = putInt(dst, int(w))
	} else {
		dst = append(dst, 0)
	}
	if st, ok := h.mig[b]; ok && f.MigratoryDetect {
		dst = append(dst, 1)
		dst = putInt(dst, int(st.lastWriter))
		dst = putBool(dst, st.haveWriter)
		dst = putInt(dst, st.score)
		dst = putBool(dst, st.migratory)
		dst = putBool(dst, st.lastGrantRead)
	} else {
		dst = append(dst, 0)
	}
	if f.Soft != nil {
		dst = putNodes(dst, f.Soft.SharersOf(b))
	}
	words := f.Mem.ReadBlock(b)
	return putWords(dst, &words)
}

// snapNode encodes one node's cache-side state for the tracked blocks.
func (f *Fabric) snapNode(dst []byte, id mem.NodeID, blocks []mem.Block) []byte {
	cc := f.caches[id]
	dst = append(dst, 'N')
	dst = putInt(dst, int(id))
	for _, b := range blocks {
		if l, ok := cc.c.Peek(b); ok {
			dst = append(dst, 'c')
			dst = putUint(dst, uint64(b))
			dst = append(dst, byte(l.State))
			dst = putBool(dst, l.Dirty)
			dst = putWords(dst, &l.Words)
		}
		if t, ok := cc.txns[b]; ok {
			dst = append(dst, 't')
			dst = putUint(dst, uint64(b))
			dst = putBool(dst, t.write)
			dst = putInt(dst, len(t.waiters))
			for i := range t.waiters {
				dst = putWaiter(dst, &t.waiters[i])
			}
		}
		if ws := cc.watchers[b]; len(ws) > 0 {
			// Parked watchers are logical state: which address each waits
			// on and which value it expects to change determine whether a
			// future coherence event completes or re-parks it, so a bare
			// count would merge states that diverge.
			dst = append(dst, 'w')
			dst = putUint(dst, uint64(b))
			dst = putInt(dst, len(ws))
			for _, w := range ws {
				dst = putUint(dst, uint64(w.addr))
				dst = putUint(dst, w.old)
			}
		}
	}
	// Outstanding directoryless accesses, per home in node order. An op's
	// queue position determines which DRESP completes it, so the queues
	// are state.
	for hid := 0; hid < f.Nodes(); hid++ {
		q := cc.direct[mem.NodeID(hid)]
		if len(q) == 0 {
			continue
		}
		dst = append(dst, 'd')
		dst = putInt(dst, hid)
		dst = putInt(dst, len(q))
		for i := range q {
			dst = putWaiter(dst, &q[i])
		}
	}
	return append(dst, '.')
}

// snapPending encodes the engine's pending events in firing order, each
// with its firing delay relative to the current cycle. Order alone is not
// sufficient once watch re-arms enter the picture: a re-arm is scheduled
// one cycle out (the only non-zero delay a zero-latency world ever
// schedules), so a state where the re-arm fires before a newly injected
// zero-delay event and a state where it fires after are different states.
func (f *Fabric) snapPending(dst []byte) []byte {
	now := f.Engine.Now()
	f.snapEvents = f.Engine.PendingTagged(f.snapEvents[:0])
	dst = append(dst, 'Q')
	dst = putInt(dst, len(f.snapEvents))
	for _, ev := range f.snapEvents {
		dst = putUint(dst, uint64(ev.At-now))
		switch tag := ev.Tag.(type) {
		case *flight:
			dst = append(dst, 'M')
			dst = f.snapMsg(dst, &tag.m)
		case *procTag:
			// A message queued at a busy home is encoded exactly like one
			// still in flight, distinguished by the prefix: it carries the
			// same logical content and the same epoch-relativity rules.
			dst = append(dst, 'P')
			dst = putInt(dst, int(tag.node))
			dst = f.snapMsg(dst, &tag.m)
		case *retryTag:
			dst = append(dst, 'R')
			dst = putInt(dst, int(tag.cc.node))
			dst = putUint(dst, uint64(tag.b))
			dst = putBool(dst, tag.live())
		case *trapTag:
			dst = append(dst, 'T', byte(tag.kind))
			dst = putInt(dst, int(tag.h.node))
			dst = putUint(dst, uint64(tag.b))
			switch tag.kind {
			case trapRead, trapReadBatch:
				dst = putInt(dst, int(tag.r))
			case trapWFault:
				dst = putInt(dst, int(tag.r))
				dst = putNodes(dst, tag.targets)
			case trapAck:
				dst = putBool(dst, tag.last)
			case trapLACK:
			}
		case *watchTag:
			dst = append(dst, 'W')
			dst = putInt(dst, int(tag.cc.node))
			dst = putUint(dst, uint64(tag.a))
			dst = putUint(dst, tag.old)
		case *ifetchTag:
			dst = append(dst, 'I')
			dst = putInt(dst, int(tag.cc.node))
			dst = putUint(dst, uint64(tag.b))
		default:
			dst = append(dst, '?')
		}
	}
	return dst
}

// snapMsg encodes one protocol message canonically. The epoch is encoded
// relative to the entry's current epoch, and only for the kinds whose
// epoch the protocol reads: equality with the entry's current epoch is
// all that matters, and encoding the absolute value (or a delta against
// a request's constant zero) would leak the history-dependent
// transaction count into the fingerprint.
func (f *Fabric) snapMsg(dst []byte, m *Msg) []byte {
	var delta uint32
	if m.Kind.CarriesEpoch() {
		delta = f.entryEpoch(m.Block) - m.Epoch
	}
	dst = append(dst, byte(m.Kind))
	dst = putInt(dst, int(m.Src))
	dst = putInt(dst, int(m.Dst))
	dst = putUint(dst, uint64(m.Block))
	dst = putUint(dst, uint64(delta))
	if m.Kind.CarriesData() {
		dst = putWords(dst, &m.Words)
	}
	if m.Kind == MsgDREQ || m.Kind == MsgDRESP {
		// Direct accesses carry a word, an offset, and an operation; all
		// of it determines behavior, so all of it is state.
		dst = putInt(dst, m.Off)
		dst = putBool(dst, m.DWrite)
		dst = putRMW(dst, m.RMW)
		dst = putUint(dst, m.Words[0])
	}
	return dst
}

// PendingDescriptions renders the engine's pending events in firing order:
// "deliver <msg>" for in-flight messages, a label naming the handler,
// retry, watch or fill otherwise, and "event" for events the fabric did
// not schedule. The model checker's counterexample renderer uses it to
// narrate what each scheduling step fired.
func (f *Fabric) PendingDescriptions() []string {
	var out []string
	for _, ev := range f.Engine.PendingTagged(nil) {
		switch tag := ev.Tag.(type) {
		case *flight:
			out = append(out, "deliver "+tag.m.String())
		case *procTag:
			out = append(out, fmt.Sprintf("proc:%d:%s", tag.node, tag.m.String()))
		case *retryTag:
			out = append(out, fmt.Sprintf("retry node%d blk%d", tag.cc.node, tag.b))
		case *trapTag:
			out = append(out, tag.label())
		case *watchTag:
			out = append(out, tag.label())
		case *ifetchTag:
			out = append(out, fmt.Sprintf("ifetch:%d:blk%d", tag.cc.node, tag.b))
		default:
			out = append(out, "event")
		}
	}
	return out
}

// NextEventBlock reports the block the engine's earliest pending event
// operates on, when the fabric scheduled it (message delivery, busy
// retry, handler completion, queued home processing, watch re-read,
// instruction fill). ok is false when nothing is pending or the event is
// not the fabric's. The model checker's partial-order reduction uses it
// to decide whether firing the event can interfere with a slept
// injection; an unidentifiable event must be treated as interfering with
// everything.
func (f *Fabric) NextEventBlock() (mem.Block, bool) {
	ev, ok := f.Engine.Next()
	if !ok {
		return 0, false
	}
	switch tag := ev.Tag.(type) {
	case *flight:
		return tag.m.Block, true
	case *procTag:
		return tag.m.Block, true
	case *retryTag:
		return tag.b, true
	case *trapTag:
		return tag.b, true
	case *watchTag:
		return mem.BlockOf(tag.a), true
	case *ifetchTag:
		return tag.b, true
	}
	return 0, false
}

// entryEpoch returns the current epoch of b's home directory entry (zero
// if the block has never been referenced).
func (f *Fabric) entryEpoch(b mem.Block) uint32 {
	h := f.homes[mem.HomeOfBlock(b)]
	if e, ok := h.dir.Peek(b); ok {
		return e.Epoch
	}
	return 0
}
