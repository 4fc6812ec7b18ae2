package proto

import (
	"swex/internal/dir"
	"swex/internal/mem"
	"swex/internal/sim"
	"swex/internal/stats"
	"swex/internal/trace"
)

// This file adapts the protocol fabric to the structured tracing
// subsystem (internal/trace). Every hook is nil-guarded on Fabric.Sink,
// so a machine without a sink pays one branch per hook and allocates
// nothing. The correlation scheme needs no extra protocol state on the
// wire: a memory transaction's id lives on the requester's cache-side
// txn, and every message is tied back to it at send time — requests and
// replies through the requester's (or destination's) open transaction,
// invalidations and acknowledgments through the home directory's staged
// requester.

// BreakdownReporter is implemented by Software implementations that can
// report the per-activity cycle breakdown of their most recent handler
// (internal/ext does). The tracer uses it to nest activity segments
// inside handler spans, giving the exported trace the paper's Table 2
// resolution.
type BreakdownReporter interface {
	LastBreakdown() (stats.Breakdown, bool)
}

// nextTxn assigns a fresh trace-transaction id (tracing enabled only).
func (f *Fabric) nextTxn() uint64 {
	f.txnSeq++
	return f.txnSeq
}

// cacheTxn returns node n's open transaction id for block b (0 if none).
func (f *Fabric) cacheTxn(n mem.NodeID, b mem.Block) uint64 {
	if t, ok := f.caches[n].txns[b]; ok {
		return t.id
	}
	return 0
}

// stagedReq returns the requester a home transition has staged for block
// b, valid while the entry is mid-transaction (Recall, AckWait, SWait):
// exactly the states in which invalidations and acknowledgments for the
// staged requester's transaction are in the air.
func (f *Fabric) stagedReq(b mem.Block) (mem.NodeID, bool) {
	e, ok := f.homes[mem.HomeOfBlock(b)].dir.Peek(b)
	if !ok {
		return 0, false
	}
	switch e.State {
	case dir.Recall, dir.AckWait, dir.SWait:
		return e.Req, true
	case dir.Uncached, dir.Shared, dir.Exclusive:
		return 0, false
	default:
		panic("proto: unknown directory state in trace correlation")
	}
}

// traceTxn correlates a message to the memory transaction it serves, at
// send time, by inspecting protocol state:
//
//   - requests carry their sender's open transaction;
//   - replies (data, busy) target the destination's open transaction;
//   - invalidations and acknowledgments belong to the transaction of the
//     requester the home has staged for the block;
//   - writebacks and relinquishes are spontaneous (0).
func (f *Fabric) traceTxn(m Msg) uint64 {
	switch m.Kind {
	case MsgRREQ, MsgWREQ:
		return f.cacheTxn(m.Src, m.Block)
	case MsgRDATA, MsgWDATA, MsgBUSY:
		return f.cacheTxn(m.Dst, m.Block)
	case MsgINV, MsgACK, MsgUPDATE:
		if r, ok := f.stagedReq(m.Block); ok {
			return f.cacheTxn(r, m.Block)
		}
		return 0
	case MsgWB, MsgREL:
		return 0
	default:
		panic("proto: unknown message kind in trace correlation")
	}
}

// MessageTimed implements mesh.MsgObserver: it decomposes one message's
// computed timing into component spans (transmit-queue wait, source-side
// DRAM, wire, receive-queue wait, receive serialization), all sharing a
// message sequence number and the owning transaction id. The fabric is
// installed as the network's observer only when tracing is enabled.
func (f *Fabric) MessageTimed(src, dst, size int, extra, sent, txStart, injected, arrival, rxStart, done sim.Cycle, tag any) {
	if f.Sink == nil {
		return
	}
	fl, ok := tag.(*flight)
	if !ok {
		return
	}
	f.msgSeq++
	ev := trace.Event{
		Txn:  f.traceTxn(fl.m),
		Seq:  f.msgSeq,
		Arg:  int64(fl.m.Block),
		Node: int32(src),
		Peer: int32(dst),
		Name: fl.m.Kind.String(),
	}
	emit := func(cat trace.Category, op trace.Op, s, e sim.Cycle) {
		if e <= s {
			return
		}
		ev.Cat, ev.Op, ev.Start, ev.End = cat, op, s, e
		f.Sink.Emit(ev)
	}
	emit(trace.CatNetQueue, trace.OpTxQueue, sent, txStart)
	emit(trace.CatHWDir, trace.OpDRAM, txStart, txStart+extra)
	emit(trace.CatNetTransit, trace.OpWire, txStart+extra, arrival)
	emit(trace.CatNetQueue, trace.OpRxQueue, arrival, rxStart)
	emit(trace.CatNetTransit, trace.OpRecv, rxStart, done)
}

// emitHandler records one software-handler execution span ending at
// done, plus nested per-activity segments when the software reports a
// breakdown. The activity segments are laid out cumulatively in
// declaration order, which is the execution order of the paper's
// handler phases (dispatch, decode, ..., return).
func (f *Fabric) emitHandler(node mem.NodeID, b mem.Block, r mem.NodeID, name string, cost sim.Cycle, done sim.Cycle) {
	txn := f.cacheTxn(r, b)
	f.Sink.Emit(trace.Event{
		Start: done - cost, End: done, Txn: txn, Arg: int64(b),
		Node: int32(node), Peer: -1,
		Cat: trace.CatSWHandler, Op: trace.OpHandler, Name: name,
	})
	br, ok := f.Soft.(BreakdownReporter)
	if !ok {
		return
	}
	bd, ok := br.LastBreakdown()
	if !ok {
		return
	}
	off := done - cost
	for a := stats.Activity(0); a < stats.NumActivities; a++ {
		d := sim.Cycle(bd[a])
		if d == 0 {
			continue
		}
		end := off + d
		if end > done {
			end = done
		}
		f.Sink.Emit(trace.Event{
			Start: off, End: end, Txn: txn, Arg: int64(b),
			Node: int32(node), Peer: -1,
			Cat: trace.CatActivity, Op: trace.OpActivity, Name: a.String(),
		})
		off = end
	}
}
