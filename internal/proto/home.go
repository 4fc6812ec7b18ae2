package proto

import (
	"fmt"

	"swex/internal/dir"
	"swex/internal/mem"
	"swex/internal/sim"
	"swex/internal/trace"
)

// HomeCtl is the home-side protocol engine of one node's CMMU. It owns the
// hardware directory for the blocks the node is home to and drives every
// transition of the coherence protocol, trapping into the protocol
// extension software at the points the configured Spec dictates.
//
// The controller serializes message processing on a hardware server (the
// CMMU pipeline) and, when software is involved, marks the block SWait so
// that competing requests receive BUSY replies and retry — the hardware
// mechanism the paper relies on for forward progress.
type HomeCtl struct {
	f    *Fabric
	node mem.NodeID
	dir  dir.Directory // by value: every message looks its block up here
	srv  sim.Server    // CMMU hardware occupancy

	// swTxn marks blocks whose in-flight invalidation was initiated by
	// software, so acknowledgment completion knows whether to trap
	// (LACK) or run entirely in hardware.
	swTxn map[mem.Block]bool

	// reads holds each block's running read-handler chain (see
	// readChain); a block has an entry only while segments are
	// outstanding.
	reads map[mem.Block]readChain
	// pendingWrite holds one write request that arrived while a read
	// chain was draining; the handler loop processes it when the chain
	// ends, exactly as a queued WREQ would be processed by the real
	// handler's message-drain loop. Further writers are busied.
	pendingWrite map[mem.Block]mem.NodeID

	// overrides holds per-block protocol reconfigurations (Alewife
	// supports protocol selection block by block, paper Section 3.1;
	// the machine's Spec is only the boot-time default).
	overrides map[mem.Block]Spec

	// mig holds the migratory-data detector state (see migratory.go).
	mig map[mem.Block]*migState

	// jobFree recycles the procTag carriers that queue messages for
	// hardware processing (see procTag.Fire), linked by their next fields.
	jobFree *procTag

	// trapFree recycles the trapTag carriers that schedule software
	// handler completions (see traptag.go), linked the same way.
	trapFree *trapTag

	// Sharer-union scratch state: invTargets collects each transaction's
	// target set into a pooled slice (invPool) instead of a fresh
	// allocation, deduplicating through a generation-stamped per-node
	// array (invSeen/invGen, advanced by newUnion) instead of a fresh
	// map; noteSharers counts a union the same way. invOut and invReq
	// are the collection-in-progress registers invAdd reads, and
	// invAddFn is invAdd pre-bound once so handing it to
	// dir.PointerSet.ForEach does not allocate a method value per call.
	// A slice is released back to the pool by the caller once the
	// transaction's invalidations are on the wire (for software write
	// faults that is inside the deferred trap body, which is why a
	// single scratch buffer would not do: several blocks' faults can be
	// outstanding at once).
	invPool  [][]mem.NodeID
	invSeen  []uint32
	invGen   uint32
	invReq   mem.NodeID
	invOut   []mem.NodeID
	invAddFn func(mem.NodeID)

	// Traps counts software handler invocations by kind.
	Traps uint64
	// BusySent counts busy (retry) replies.
	BusySent uint64
	// StrayAcks counts acknowledgments discarded by the epoch filter.
	StrayAcks uint64
}

// readChain is one block's running read handler: while a read-overflow
// handler runs, further read requests piggyback on it (the handler drains
// the CMMU queue before returning) instead of being busied, each adding
// an incremental cost segment. Batching is bounded: an unbounded drain
// loop under continuous read pressure would hold the block in SWait
// indefinitely and starve writers, so the chain is capped and suspended
// once a write has been bounced.
type readChain struct {
	segs       int       // handler segments outstanding
	batchUntil sim.Cycle // reads arriving before this join the chain
	end        sim.Cycle // completion of the chain's last segment
}

// newHomeCtl builds node's home controller for fabric f, an n-node
// machine.
func newHomeCtl(f *Fabric, node mem.NodeID, nodes int) *HomeCtl {
	h := &HomeCtl{
		swTxn:        make(map[mem.Block]bool),
		reads:        make(map[mem.Block]readChain),
		pendingWrite: make(map[mem.Block]mem.NodeID),
		overrides:    make(map[mem.Block]Spec),
		mig:          make(map[mem.Block]*migState),
	}
	h.invAddFn = h.invAdd
	h.bind(f, node, nodes)
	return h
}

// bind attaches an empty controller, new or reset, to fabric f, an
// n-node machine, as node's.
func (h *HomeCtl) bind(f *Fabric, node mem.NodeID, nodes int) {
	h.f, h.node = f, node
	if len(h.invSeen) != nodes {
		h.invSeen = grow(h.invSeen, nodes)
		clear(h.invSeen)
	}
	h.dir.Reset(f.Spec.PointerCapacity(nodes))
}

// reset empties the controller and detaches it from its fabric: no
// directory entries, software transactions, read chains, parked writes,
// block overrides, detector state, union stamps or statistics. It keeps
// only storage (maps, directory, carrier free lists and scratch slices),
// so bound again it behaves exactly as newHomeCtl's. CloneInto resets
// the controller it overwrites, and Fabric.Reset every controller it
// keeps.
func (h *HomeCtl) reset() {
	h.f = nil
	h.dir.Reset(0)
	h.srv = sim.Server{}
	clearMap(h.swTxn)
	clearMap(h.reads)
	clearMap(h.pendingWrite)
	clearMap(h.overrides)
	clearMap(h.mig)
	clear(h.invSeen)
	h.invGen, h.invReq, h.invOut = 0, 0, nil
	h.Traps, h.BusySent, h.StrayAcks = 0, 0, 0
}

// Deliver queues a copy of an incoming protocol message for hardware
// processing.
func (h *HomeCtl) Deliver(m *Msg) {
	if mem.HomeOfBlock(m.Block) != h.node {
		panic(fmt.Sprintf("proto: node %d received home message for block homed on %d",
			h.node, mem.HomeOfBlock(m.Block)))
	}
	e := h.f.Engine
	start := h.srv.Reserve(e.Now(), h.f.Timing.HomeProc)
	if h.f.Sink != nil {
		h.f.Sink.Emit(trace.Event{
			Start: start, End: start + h.f.Timing.HomeProc,
			Txn: h.f.traceTxn(*m), Arg: int64(m.Block),
			Node: int32(h.node), Peer: int32(m.Src),
			Cat: trace.CatHWDir, Op: trace.OpHomeProc, Name: m.Kind.String(),
		})
	}
	t := h.jobFree
	if t != nil {
		h.jobFree = t.next
	} else {
		t = &procTag{h: h, node: h.node}
	}
	t.m, t.next = *m, nil
	e.OwnedAtCall(int(h.node), start+h.f.Timing.HomeProc, t, t)
}

// specFor returns the protocol governing a block: its override if one was
// configured, the machine default otherwise.
func (h *HomeCtl) specFor(b mem.Block) Spec {
	if s, ok := h.overrides[b]; ok {
		return s
	}
	return h.f.Spec
}

// Configure reconfigures the protocol for one block, as Alewife's
// block-by-block protocol selection does. It must be called before the
// block's first reference (reconfiguring live directory state is not
// modeled) and the override must be expressible by the machine's
// installed software. Returns an error otherwise.
func (h *HomeCtl) Configure(b mem.Block, s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, exists := h.dir.Peek(b); exists {
		return fmt.Errorf("proto: block %d already referenced; reconfiguration must precede first use", b)
	}
	if s.UsesSoftware() && h.f.Soft == nil {
		return fmt.Errorf("proto: block override %s needs protocol software, machine has none", s.Name)
	}
	if s.UsesSoftware() && s.SoftwareOnly != h.f.Spec.SoftwareOnly {
		return fmt.Errorf("proto: block override %s is not expressible by the machine's %s software",
			s.Name, h.f.Spec.Name)
	}
	h.overrides[b] = s
	return nil
}

func (h *HomeCtl) process(m *Msg) {
	e := h.entry(m.Block)
	switch m.Kind {
	case MsgRREQ:
		h.onRead(m, e)
	case MsgWREQ:
		h.onWrite(m, e)
	case MsgACK:
		h.onAck(m, e)
	case MsgUPDATE:
		h.onUpdate(m, e)
	case MsgWB:
		h.onWB(m, e)
	case MsgREL:
		h.onRel(m, e)
	default:
		panic(fmt.Sprintf("proto: home received %s", m.Kind))
	}
}

// maxBatchedReads bounds a read handler's drain loop.
const maxBatchedReads = 8

// busy sends a retry reply.
func (h *HomeCtl) busy(m *Msg) {
	h.BusySent++
	h.f.Send(Msg{Kind: MsgBUSY, Src: h.node, Dst: m.Src, Block: m.Block})
}

// sendData transmits a data reply (RDATA or WDATA). The memory access
// time is folded into the message's source-side delay so the reply keeps
// its place in the per-destination delivery order: an invalidation
// issued after this reply must not overtake it.
func (h *HomeCtl) sendData(kind MsgKind, dst mem.NodeID, b mem.Block) {
	h.f.SendDelayed(Msg{
		Kind: kind, Src: h.node, Dst: dst, Block: b,
		Words: h.f.Mem.ReadBlock(b),
	}, h.f.Timing.MemLatency+h.f.Timing.CacheFill)
}

// trap schedules a software handler of the given cost and runs its
// completion (trapTag.Fire, chosen by the tag's kind) when it finishes,
// returning the completion cycle. The block stays in SWait (set by the
// caller) until then. The tag's block and requester plus the name
// identify the handler for the trace (r's open transaction owns the
// handler span).
func (h *HomeCtl) trap(t *trapTag, name string, cost sim.Cycle) sim.Cycle {
	h.Traps++
	h.f.Counters.Inc(ctrTraps)
	h.f.traceTrap(int(h.node), "handler", cost)
	done := h.f.Traps.Schedule(h.node, cost)
	if h.f.Sink != nil {
		h.f.emitHandler(h.node, t.b, t.r, name, cost, done)
	}
	h.f.Engine.OwnedAtCall(int(h.node), done, t, t)
	return done
}

// ---------------------------------------------------------------- reads

func (h *HomeCtl) onRead(m *Msg, e *dir.Entry) {
	switch e.State {
	case dir.SWait, dir.AckWait, dir.Recall:
		_, writeQueued := h.pendingWrite[m.Block]
		rc := h.reads[m.Block]
		if h.f.BatchReads && e.State == dir.SWait && rc.segs > 0 &&
			!writeQueued && rc.segs < maxBatchedReads &&
			h.f.Engine.Now() < rc.batchUntil {
			// A read-overflow handler is already running for this
			// block: piggyback on it instead of bouncing the request.
			h.swRead(m.Block, e, m.Src, nil)
			return
		}
		h.busy(m)
	case dir.Exclusive:
		if e.Owner == m.Src {
			// The recorded owner is asking again. Messages between a
			// node pair deliver in order, so any writeback would have
			// arrived before this request: the owner dropped the line
			// clean (evicted before the pending write replayed) and
			// memory still holds the current data. Reset and re-serve.
			e.State = dir.Uncached
			e.Owner = 0
			h.addReader(m.Block, e, m.Src)
			return
		}
		h.startRecall(m.Block, e, m.Src, false)
	case dir.Uncached, dir.Shared:
		if h.h0UntrackedFillPending(m, e) {
			h.busy(m)
			return
		}
		h.addReader(m.Block, e, m.Src)
	default:
		panic(fmt.Sprintf("proto: read request against block %d in unknown home state %d", m.Block, e.State))
	}
}

// addReader services a read request against an Uncached or Shared block.
func (h *HomeCtl) addReader(b mem.Block, e *dir.Entry, r mem.NodeID) {
	spec := h.specFor(b)
	if spec.SoftwareOnly {
		h.h0Read(b, e, r)
		return
	}
	if h.migReadGrant(b, e, spec) {
		// Detected-migratory block: serve the read with ownership so
		// the follow-on write hits locally.
		h.grantWrite(b, e, r)
		return
	}
	if r == h.node && spec.LocalBit {
		e.LocalBit = true
		e.State = dir.Shared
		h.noteSharers(b, e)
		h.sendData(MsgRDATA, r, b)
		return
	}
	if e.Ptrs.Add(r) {
		e.State = dir.Shared
		h.noteSharers(b, e)
		h.sendData(MsgRDATA, r, b)
		return
	}
	// Pointer overflow.
	if spec.Broadcast {
		// Dir_1H_1S_B: no recording; remember only that more copies
		// exist than pointers. SwCount shadows the untracked copies
		// for worker-set statistics (the hardware keeps no such
		// count).
		e.BroadcastBit = true
		e.SwCount++
		e.NoteSharers()
		h.sendData(MsgRDATA, r, b)
		return
	}
	// LimitLESS read overflow: the hardware returns the data
	// immediately; the software only records the request (paper
	// Section 2.2). The entry is locked (SWait) while the handler
	// empties the pointers into the extended directory.
	drained := e.Ptrs.Drain()
	h.swRead(b, e, r, drained)
}

// swRead runs (or extends) the software read handler for b on behalf of
// requester r. The first invocation pays a full trap; requests arriving
// while the handler runs are drained by it at incremental cost. For
// LimitLESS protocols the hardware transmits the data immediately; the
// software-only directory transmits it from the handler.
func (h *HomeCtl) swRead(b mem.Block, e *dir.Entry, r mem.NodeID, drained []mem.NodeID) {
	rc := h.reads[b]
	first := rc.segs == 0
	rc.segs++
	e.State = dir.SWait
	if !h.specFor(b).SoftwareOnly {
		h.sendData(MsgRDATA, r, b)
	}
	if first {
		cost := h.f.Soft.ReadOverflow(b, drained, r)
		done := h.trap(h.grabTrap(trapRead, b, r), "read-overflow", cost)
		// Requests arriving while the original handler is still queued
		// or running are part of the burst it drains inline; anything
		// later retries. This absorbs the all-nodes-read-at-once bursts
		// of data-parallel phases without letting staggered readers
		// chain the block into a perpetual SWait that starves writers.
		rc.batchUntil, rc.end = done, done
		h.reads[b] = rc
		return
	}
	// Piggybacked request: the running handler records it as part of its
	// message-drain loop, so its completion follows the chain directly
	// rather than queueing behind unrelated handlers. The processor time
	// is still accounted to the node.
	cost := h.f.Soft.ReadBatched(b, r)
	h.f.Counters.Inc(ctrBatchedReads)
	h.f.Traps.Schedule(h.node, cost)
	h.Traps++
	rc.end += cost
	h.reads[b] = rc
	if h.f.Sink != nil {
		h.f.emitHandler(h.node, b, r, "read-batched", cost, rc.end)
	}
	t := h.grabTrap(trapReadBatch, b, r)
	h.f.Engine.OwnedAtCall(int(h.node), rc.end, t, t)
}

// swReadDone completes one segment of b's read handler on behalf of
// requester r; the last segment hands the block back to hardware.
func (h *HomeCtl) swReadDone(b mem.Block, e *dir.Entry, r mem.NodeID) {
	if h.specFor(b).SoftwareOnly {
		h.sendData(MsgRDATA, r, b)
	}
	rc := h.reads[b]
	rc.segs--
	if rc.segs != 0 {
		h.reads[b] = rc
		return
	}
	delete(h.reads, b)
	e.SwExt = true
	sw := h.f.Soft.SharersOf(b)
	e.SwCount = len(sw)
	e.State = dir.Shared
	h.noteUnion(e, sw)
	if w, ok := h.pendingWrite[b]; ok {
		// Drain the queued write in order.
		delete(h.pendingWrite, b)
		h.dispatchWrite(b, e, w)
	}
}

// h0Read services a read under the software-only directory.
func (h *HomeCtl) h0Read(b mem.Block, e *dir.Entry, r mem.NodeID) {
	if r == h.node && !e.RemoteBit {
		// Intra-node access before any remote reference: serviced by
		// hardware exactly as in a uniprocessor (paper Section 2.3).
		h.sendData(MsgRDATA, r, b)
		return
	}
	if r != h.node && !e.RemoteBit {
		// First inter-node request: set the bit and flush the block
		// from the local cache before the software takes over.
		e.RemoteBit = true
		if h.flushLocal(b, e, r, false) {
			return // continues in completeRecall
		}
	}
	// Software handles the request; the requester waits for the handler
	// to transmit the data.
	h.swRead(b, e, r, nil)
}

// h0UntrackedFillPending reports the software-only directory's blind spot:
// while the remote-access bit is clear, the home services its own misses
// in hardware without recording them, so a fill still in flight to the
// home's cache is invisible to both the directory and the flush check. A
// remote request arriving in that window must retry until the fill lands
// (it will then be flushed like any resident copy).
func (h *HomeCtl) h0UntrackedFillPending(m *Msg, e *dir.Entry) bool {
	return h.specFor(m.Block).SoftwareOnly && !e.RemoteBit && m.Src != h.node &&
		h.f.Cache(h.node).HasTxn(m.Block)
}

// flushLocal begins an invalidation of the home's own cached copy, staging
// the original request for completion when the flush acknowledgment
// arrives. It reports whether a flush was necessary.
func (h *HomeCtl) flushLocal(b mem.Block, e *dir.Entry, r mem.NodeID, write bool) bool {
	if _, cached := h.f.Cache(h.node).HasBlock(b); !cached {
		return false
	}
	e.State = dir.Recall
	e.Owner = h.node
	e.Req = r
	e.ReqWrite = write
	e.Epoch++
	h.f.Send(Msg{Kind: MsgINV, Src: h.node, Dst: h.node, Block: b, Epoch: e.Epoch})
	return true
}

// --------------------------------------------------------------- writes

func (h *HomeCtl) onWrite(m *Msg, e *dir.Entry) {
	switch e.State {
	case dir.SWait, dir.AckWait, dir.Recall:
		if h.f.BatchReads && e.State == dir.SWait && h.reads[m.Block].segs > 0 {
			if _, queued := h.pendingWrite[m.Block]; !queued {
				// The read handler's drain loop will process this
				// write when the chain ends, preserving queue order
				// instead of starving the writer with retries.
				h.pendingWrite[m.Block] = m.Src
				return
			}
		}
		h.busy(m)
		return
	case dir.Exclusive:
		if e.Owner == m.Src {
			// As in onRead: in-order delivery means the owner dropped
			// the line clean; memory is current. Re-grant.
			e.State = dir.Uncached
			e.Owner = 0
			break
		}
		h.startRecall(m.Block, e, m.Src, true)
		return
	case dir.Uncached, dir.Shared:
		// Stable states: dispatch below.
	default:
		panic(fmt.Sprintf("proto: write request against block %d in unknown home state %d", m.Block, e.State))
	}

	if h.h0UntrackedFillPending(m, e) {
		h.busy(m)
		return
	}
	h.dispatchWrite(m.Block, e, m.Src)
}

// dispatchWrite services a write request against a block in a stable
// (Uncached/Shared) state.
func (h *HomeCtl) dispatchWrite(b mem.Block, e *dir.Entry, r mem.NodeID) {
	spec := h.specFor(b)
	h.migObserveWrite(b, e, r)
	if spec.SoftwareOnly {
		if r == h.node && !e.RemoteBit {
			h.grantWrite(b, e, r)
			return
		}
		if r != h.node && !e.RemoteBit {
			e.RemoteBit = true
			if h.flushLocal(b, e, r, true) {
				return
			}
		}
		h.swWriteFault(b, e, r)
		return
	}

	needsSW := e.SwExt || (spec.Broadcast && e.BroadcastBit)
	if !needsSW {
		h.hwWrite(b, e, r)
		return
	}
	h.swWriteFault(b, e, r)
}

// hwWrite performs a write whose sharer set fits the hardware directory.
func (h *HomeCtl) hwWrite(b mem.Block, e *dir.Entry, r mem.NodeID) {
	targets := h.invTargets(b, e, r, false)
	if len(targets) == 0 {
		h.releaseInv(targets)
		h.grantWrite(b, e, r)
		return
	}
	e.Epoch++
	e.State = dir.AckWait
	e.AckCount = len(targets)
	e.Req = r
	e.ReqWrite = true
	e.Ptrs.Clear()
	e.LocalBit = false
	h.swTxn[b] = false
	for _, t := range targets {
		h.f.Send(Msg{Kind: MsgINV, Src: h.node, Dst: t, Block: b, Epoch: e.Epoch})
	}
	h.f.Counters.Addc(ctrHWInvalidations, uint64(len(targets)))
	h.releaseInv(targets)
}

// swWriteFault runs the software write handler: look up the extended
// sharer set, transmit invalidations to every copy, and put the directory
// into acknowledgment-collection mode.
func (h *HomeCtl) swWriteFault(b mem.Block, e *dir.Entry, r mem.NodeID) {
	spec := h.specFor(b)
	targets := h.invTargets(b, e, r, spec.Broadcast && e.BroadcastBit)
	e.State = dir.SWait
	cost := h.f.Soft.WriteFault(b, r, len(targets))
	t := h.grabTrap(trapWFault, b, r)
	t.targets = targets
	h.trap(t, "write-fault", cost)
}

// swWriteFaultDone completes the write handler: it transmits the
// invalidations to targets and puts the directory into acknowledgment
// collection (or grants at once when there is nothing to invalidate).
func (h *HomeCtl) swWriteFaultDone(b mem.Block, e *dir.Entry, r mem.NodeID, targets []mem.NodeID) {
	e.Epoch++
	e.AckCount = len(targets)
	e.Req = r
	e.ReqWrite = true
	e.Ptrs.Clear()
	e.LocalBit = false
	e.SwExt = false
	e.SwCount = 0
	e.BroadcastBit = false
	h.swTxn[b] = true
	if len(targets) == 0 {
		h.releaseInv(targets)
		h.grantWrite(b, e, r)
		return
	}
	for _, t := range targets {
		h.f.Send(Msg{Kind: MsgINV, Src: h.node, Dst: t, Block: b, Epoch: e.Epoch})
	}
	h.f.Counters.Addc(ctrSWInvalidations, uint64(len(targets)))
	h.releaseInv(targets)
	if h.specFor(b).AckMode == AckSW {
		// Software fields every acknowledgment: the block stays
		// under software control.
		e.State = dir.SWait
	} else {
		e.State = dir.AckWait
	}
}

// invTargets collects the nodes holding copies that must be invalidated
// for requester r: hardware pointers, the local bit, the software-extended
// list, or — for a pending broadcast — every node in the machine. The
// returned slice comes from a per-home pool; the caller must hand it back
// through releaseInv once the transaction's invalidations are sent.
func (h *HomeCtl) invTargets(b mem.Block, e *dir.Entry, r mem.NodeID, broadcast bool) []mem.NodeID {
	n := h.f.Net.Nodes()
	h.newUnion(r)
	if broadcast {
		for i := 0; i < n; i++ {
			h.invAdd(mem.NodeID(i))
		}
	} else {
		e.Ptrs.ForEach(h.invAddFn)
		if e.LocalBit {
			h.invAdd(h.node)
		}
		if e.SwExt && h.f.Soft != nil {
			for _, id := range h.f.Soft.SharersOf(b) {
				h.invAdd(id)
			}
		}
	}
	out := h.invOut
	h.invOut = nil
	return out
}

// newUnion starts a deduplicated collection into a pooled invOut that
// invAdd extends, skipping requester r: it advances the stamp generation,
// so no node counts as seen yet.
func (h *HomeCtl) newUnion(r mem.NodeID) {
	h.invGen++
	if h.invGen == 0 {
		// Generation counter wrapped: every stamp in invSeen is now
		// ambiguous, so clear them all and restart at generation one.
		clear(h.invSeen)
		h.invGen = 1
	}
	h.invReq = r
	h.invOut = h.grabInv()
}

// invAdd appends one deduplicated node to the collection newUnion
// started, skipping the requester.
func (h *HomeCtl) invAdd(id mem.NodeID) {
	if id == h.invReq || h.invSeen[id] == h.invGen {
		return
	}
	h.invSeen[id] = h.invGen
	h.invOut = append(h.invOut, id)
}

// grabInv takes an empty target slice from the pool (or grows the pool on
// first use / at new outstanding-transaction depths).
func (h *HomeCtl) grabInv() []mem.NodeID {
	if n := len(h.invPool); n > 0 {
		s := h.invPool[n-1]
		h.invPool[n-1] = nil
		h.invPool = h.invPool[:n-1]
		return s
	}
	return make([]mem.NodeID, 0, len(h.invSeen))
}

// releaseInv returns a target slice obtained from invTargets to the pool.
// Callers release only after the last read of the slice — for software
// write faults that is the end of the deferred trap body.
func (h *HomeCtl) releaseInv(s []mem.NodeID) {
	h.invPool = append(h.invPool, s[:0])
}

// grantWrite gives r exclusive ownership. Any pointer state left from the
// preceding shared epoch is stale by construction (every other copy has
// been invalidated, or none existed) and is cleared, or later writes would
// send spurious invalidations to nodes without copies.
func (h *HomeCtl) grantWrite(b mem.Block, e *dir.Entry, r mem.NodeID) {
	e.Ptrs.Clear()
	e.LocalBit = false
	e.State = dir.Exclusive
	e.Owner = r
	e.Req = 0
	e.ReqWrite = false
	e.AckCount = 0
	e.NoteSharers()
	h.sendData(MsgWDATA, r, b)
}

// startRecall invalidates a dirty owner's copy on behalf of requester r.
func (h *HomeCtl) startRecall(b mem.Block, e *dir.Entry, r mem.NodeID, write bool) {
	e.State = dir.Recall
	e.Req = r
	e.ReqWrite = write
	e.Epoch++
	h.f.Send(Msg{Kind: MsgINV, Src: h.node, Dst: e.Owner, Block: b, Epoch: e.Epoch})
}

// ------------------------------------------------- acks and writebacks

func (h *HomeCtl) onAck(m *Msg, e *dir.Entry) {
	if m.Epoch != e.Epoch {
		h.StrayAcks++
		return
	}
	switch e.State {
	case dir.Recall:
		// The owner's copy turned out to be clean (or already gone);
		// complete the recall without a memory update.
		h.migRecallClean(m.Block)
		h.completeRecall(m.Block, e)
	case dir.AckWait:
		h.countAck(m.Block, e)
	case dir.SWait:
		if h.specFor(m.Block).AckMode == AckSW && e.AckCount > 0 {
			h.swAck(m.Block, e)
			return
		}
		h.StrayAcks++
	case dir.Uncached, dir.Shared, dir.Exclusive:
		// The transaction this ack belonged to already closed.
		h.StrayAcks++
	default:
		panic(fmt.Sprintf("proto: ack for block %d in unknown home state %d", m.Block, e.State))
	}
}

// countAck is the hardware acknowledgment counter.
func (h *HomeCtl) countAck(b mem.Block, e *dir.Entry) {
	e.AckCount--
	if e.AckCount > 0 {
		return
	}
	if h.swTxn[b] && h.specFor(b).AckMode == AckLACK {
		// S_NB,LACK: the final acknowledgment traps; the software
		// transmits the data to the requester.
		e.State = dir.SWait
		cost := h.f.Soft.LastAckTrap(b)
		h.trap(h.grabTrap(trapLACK, b, e.Req), "last-ack", cost)
		return
	}
	h.grantWrite(b, e, e.Req)
}

// swAck fields one acknowledgment in software (S_NB,ACK): each arriving
// acknowledgment traps the processor, and the final handler transmits the
// data reply.
func (h *HomeCtl) swAck(b mem.Block, e *dir.Entry) {
	e.AckCount--
	last := e.AckCount == 0
	cost := h.f.Soft.AckTrap(b, last)
	t := h.grabTrap(trapAck, b, e.Req)
	t.last = last
	h.trap(t, "ack", cost)
}

func (h *HomeCtl) onUpdate(m *Msg, e *dir.Entry) {
	if e.State != dir.Recall || e.Owner != m.Src || m.Epoch != e.Epoch {
		h.StrayAcks++
		return
	}
	h.migRecallDirty(m.Block)
	h.f.Mem.WriteBlock(m.Block, m.Words)
	h.completeRecall(m.Block, e)
}

// completeRecall finishes an exclusive-owner invalidation and re-dispatches
// the staged request.
func (h *HomeCtl) completeRecall(b mem.Block, e *dir.Entry) {
	r, write := e.Req, e.ReqWrite
	e.State = dir.Uncached
	e.Owner = 0
	if write {
		if h.specFor(b).SoftwareOnly && r != h.node {
			h.swWriteFault(b, e, r)
			return
		}
		h.grantWrite(b, e, r)
		return
	}
	h.addReader(b, e, r)
}

func (h *HomeCtl) onWB(m *Msg, e *dir.Entry) {
	switch e.State {
	case dir.Exclusive:
		if e.Owner != m.Src {
			return // stale
		}
		h.f.Mem.WriteBlock(m.Block, m.Words)
		e.State = dir.Uncached
		e.Owner = 0
	case dir.Recall:
		if e.Owner != m.Src {
			return
		}
		// The writeback crossed our invalidation; it carries the data
		// the recall wanted.
		h.f.Mem.WriteBlock(m.Block, m.Words)
		h.completeRecall(m.Block, e)
	case dir.Uncached, dir.Shared, dir.AckWait, dir.SWait:
		// Stale writeback from a closed transaction: drop.
	default:
		panic(fmt.Sprintf("proto: writeback for block %d in unknown home state %d", m.Block, e.State))
	}
}

// noteSharers refreshes the block's worker-set maximum. When a software
// extension exists, hardware pointers may name nodes that are also in the
// software list (a drained reader that was invalidated, evicted, and
// re-read), so the count is the deduplicated union, not the sum.
func (h *HomeCtl) noteSharers(b mem.Block, e *dir.Entry) {
	if !e.SwExt || h.f.Soft == nil {
		e.NoteSharers()
		return
	}
	h.noteUnion(e, h.f.Soft.SharersOf(b))
}

// noteUnion raises e's worker-set maximum to the size of the union of the
// software list sw, the hardware pointers and the local bit, plus an
// exclusive owner.
func (h *HomeCtl) noteUnion(e *dir.Entry, sw []mem.NodeID) {
	h.newUnion(noRequester)
	for _, id := range sw {
		h.invAdd(id)
	}
	e.Ptrs.ForEach(h.invAddFn)
	if e.LocalBit {
		h.invAdd(h.node)
	}
	n := len(h.invOut)
	h.releaseInv(h.invOut)
	h.invOut = nil
	if e.State == dir.Exclusive || e.State == dir.Recall {
		n++
	}
	if n > e.MaxSharers {
		e.MaxSharers = n
	}
}

// noRequester is a requester no node matches, for unions that skip none.
const noRequester mem.NodeID = -1

// entry returns the block's directory entry, creating it with the
// block's configured pointer capacity.
func (h *HomeCtl) entry(b mem.Block) *dir.Entry {
	if e, ok := h.dir.Peek(b); ok {
		return e
	}
	spec := h.specFor(b)
	return h.dir.EntryWithCap(b, spec.PointerCapacity(h.f.Net.Nodes()))
}

// onRel retires a checked-in clean copy's pointer. Software-extended
// sharer lists are left alone (removing a software pointer would itself
// cost a trap); the stale entry is harmless — the eventual invalidation is
// acknowledged by the absent cache. Relinquishing during a transaction is
// ignored for the same reason.
func (h *HomeCtl) onRel(m *Msg, e *dir.Entry) {
	switch e.State {
	case dir.Shared, dir.Uncached:
		if m.Src == h.node {
			e.LocalBit = false
		}
		e.Ptrs.Remove(m.Src)
		if e.State == dir.Shared && e.Ptrs.Count() == 0 && !e.LocalBit && !e.SwExt {
			e.State = dir.Uncached
		}
		h.f.Counters.Inc(ctrCheckins)
	case dir.Exclusive, dir.AckWait, dir.Recall, dir.SWait:
		// Mid-transaction check-in: drop; the copy was already
		// invalidated or is about to be.
	default:
		panic(fmt.Sprintf("proto: check-in for block %d in unknown home state %d", m.Block, e.State))
	}
}

// Entry exposes the directory entry for a block (testing and statistics).
func (h *HomeCtl) Entry(b mem.Block) *dir.Entry { return h.entry(b) }

// forEachEntry walks the directory's worker-set maxima.
func (h *HomeCtl) forEachEntry(fn func(b mem.Block, maxSharers int)) {
	h.dir.ForEach(func(b mem.Block, e *dir.Entry) { fn(b, e.MaxSharers) })
}
