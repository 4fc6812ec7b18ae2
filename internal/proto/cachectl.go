package proto

import (
	"fmt"

	"swex/internal/cache"
	"swex/internal/mem"
	"swex/internal/sim"
	"swex/internal/trace"
)

// CacheConfig sets the processor-side cache geometry and the instruction
// fetch model.
type CacheConfig struct {
	// Cache is the combined I/D cache geometry.
	Cache cache.Config
	// PerfectIfetch makes every instruction fetch a one-cycle hit that
	// bypasses the cache entirely — the NWO simulator option the paper
	// uses to isolate instruction/data thrashing (Section 6, TSP).
	PerfectIfetch bool
}

// DefaultCacheConfig is the Alewife node cache without a victim cache.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{Cache: cache.DefaultConfig()}
}

// Op is one processor memory operation presented to the cache controller.
type Op struct {
	// Write requests exclusive ownership and stores a value.
	Write bool
	// Value is stored on a write (ignored when RMW is set).
	Value uint64
	// RMW, when non-nil, makes the write an atomic read-modify-write:
	// the new value is RMW(old). Done receives the old value.
	RMW func(old uint64) uint64
	// Done is called when the operation commits, with the value read
	// (for reads and RMWs) or the value written (for plain writes).
	Done func(v uint64)
}

// txn is one outstanding miss transaction: at most one per block per node.
type txn struct {
	write   bool
	addr    mem.Addr
	waiters []pendingOp
	retries int

	// id and begin exist only while tracing is enabled: id is the trace
	// transaction (flow) id, begin the request-issue cycle. They are
	// invisible to the protocol and to state fingerprints.
	id    uint64
	begin sim.Cycle
}

type pendingOp struct {
	addr mem.Addr
	op   Op
	// checkout marks a CheckOut's verify-and-retry waiter. It changes no
	// replay behavior (the closure does the work) but must be visible in
	// state fingerprints: a checkout waiter re-issues on a Shared fill
	// where a read waiter completes, so states differing only in the
	// waiter's kind are not equivalent.
	checkout bool
	// watch marks a Watch's compare-and-park waiter, for the same reason
	// checkout exists: a watch waiter that fills with the unchanged value
	// parks instead of completing, so states differing only in the
	// waiter's kind are not equivalent and the fingerprint must see it.
	watch bool
}

type watcher struct {
	addr mem.Addr
	old  uint64
	done func(v uint64)
}

// CacheCtl is the processor side of a node's CMMU: it services the
// processor's loads, stores, and instruction fetches against the cache,
// creates miss transactions, and answers the home's invalidation requests.
type CacheCtl struct {
	f    *Fabric
	node mem.NodeID
	c    *cache.Cache
	cfg  CacheConfig

	txns     map[mem.Block]*txn
	watchers map[mem.Block][]watcher

	// direct holds the outstanding directoryless (DLS) accesses per home,
	// in issue order. Matching needs no sequence numbers: requests to one
	// home are served FIFO by its hardware pipeline and both directions
	// of the network deliver per-destination in send order, so the head
	// of the queue is always the access the next DRESP answers.
	direct map[mem.NodeID][]Op

	// Retries counts BUSY-induced retransmissions.
	Retries uint64
	// IfetchStall accumulates cycles lost to instruction fills.
	IfetchStall sim.Cycle
}

func newCacheCtl(f *Fabric, node mem.NodeID, cfg CacheConfig) *CacheCtl {
	return &CacheCtl{
		f:        f,
		node:     node,
		c:        cache.New(cfg.Cache),
		cfg:      cfg,
		txns:     make(map[mem.Block]*txn),
		watchers: make(map[mem.Block][]watcher),
		direct:   make(map[mem.NodeID][]Op),
	}
}

// Cache exposes the underlying cache (statistics, tests).
func (cc *CacheCtl) Cache() *cache.Cache { return cc.c }

// HasBlock reports whether the block is resident, without perturbing
// statistics. The home controller uses it to decide whether the
// software-only directory needs to flush the local copy.
func (cc *CacheCtl) HasBlock(b mem.Block) (cache.Line, bool) { return cc.c.Peek(b) }

// Access presents one data operation. Done fires when it commits; for
// misses that is when the fill (or ownership grant) arrives and the
// operation replays.
//
//swex:hotpath
func (cc *CacheCtl) Access(a mem.Addr, op Op) { cc.access(a, op, false) }

// access is Access plus the watch-waiter marker (see pendingOp.watch).
func (cc *CacheCtl) access(a mem.Addr, op Op, watch bool) {
	if cc.f.Spec.Directoryless {
		cc.dlsAccess(a, op)
		return
	}
	b := mem.BlockOf(a)
	off := int(a - b.Base())
	if line, ok := cc.c.Lookup(b, false); ok {
		if !op.Write {
			op.Done(line.Words[off])
			return
		}
		if line.State == cache.Exclusive {
			old := line.Words[off]
			nv := op.Value
			if op.RMW != nil {
				nv = op.RMW(old)
			}
			line.Words[off] = nv
			line.Dirty = true
			// A locally committed store is a coherence event for parked
			// watchers too: a consumer parked on this node would otherwise
			// never observe a producer writing from the same node (no
			// invalidation is generated for an exclusive hit).
			cc.wakeWatchers(b)
			if op.RMW != nil {
				op.Done(old)
			} else {
				op.Done(nv)
			}
			return
		}
		// Shared copy, write requested: upgrade through the home.
	}
	cc.enqueue(a, op, watch)
}

// enqueue adds the operation to the block's miss transaction, creating and
// issuing one if necessary.
func (cc *CacheCtl) enqueue(a mem.Addr, op Op, watch bool) {
	b := mem.BlockOf(a)
	t, ok := cc.txns[b]
	if !ok {
		t = &txn{write: op.Write, addr: a}
		cc.beginTrace(t)
		cc.txns[b] = t
		cc.issue(b, t)
	}
	t.waiters = append(t.waiters, pendingOp{addr: a, op: op, watch: watch})
}

// beginTrace stamps a new transaction with a trace id (tracing only).
func (cc *CacheCtl) beginTrace(t *txn) {
	if cc.f.Sink != nil {
		t.id = cc.f.nextTxn()
		t.begin = cc.f.Engine.Now()
	}
}

// issue sends the transaction's request message to the home.
func (cc *CacheCtl) issue(b mem.Block, t *txn) {
	kind := MsgRREQ
	if t.write {
		kind = MsgWREQ
	}
	cc.f.Send(Msg{Kind: kind, Src: cc.node, Dst: mem.HomeOfBlock(b), Block: b})
}

// Ifetch presents one instruction fetch for the block containing pc.
// Instructions are read-only and homed locally, so a miss fills from local
// memory without coherence traffic; what matters is that fills occupy a
// line in the combined cache and can displace shared data.
//
//swex:hotpath
func (cc *CacheCtl) Ifetch(pc mem.Addr, done func()) {
	if cc.cfg.PerfectIfetch {
		done()
		return
	}
	b := mem.BlockOf(pc)
	if _, ok := cc.c.Lookup(b, true); ok {
		done()
		return
	}
	lat := cc.f.Timing.MemLatency
	cc.IfetchStall += lat
	if cc.f.Sink != nil {
		now := cc.f.Engine.Now()
		cc.f.Sink.Emit(trace.Event{
			Start: now, End: now + lat, Arg: int64(lat),
			Node: int32(cc.node), Peer: -1,
			Cat: trace.CatProc, Op: trace.OpIfetch, Name: "ifetch",
		})
	}
	cc.f.Engine.OwnedAfter(int(cc.node), lat, blockTag{label: fmt.Sprintf("ifetch:%d:blk%d", cc.node, b), b: b}, func() {
		cc.install(cache.Line{Block: b, State: cache.Shared})
		done()
	})
}

// CheckOut acquires exclusive ownership of the block containing a without
// modifying it — the CICO "check-out" directive. A thread that checks a
// block out before its read-modify-write sequence pays one transaction
// instead of a read recall followed by an upgrade. Done fires when
// ownership is local. On a directoryless machine there is no ownership
// to acquire (every access goes to the home), so the directive is a
// free no-op, exactly like CheckIn against an absent copy.
func (cc *CacheCtl) CheckOut(a mem.Addr, done func()) {
	if cc.f.Spec.Directoryless {
		done()
		return
	}
	b := mem.BlockOf(a)
	if line, ok := cc.c.Lookup(b, false); ok && line.State == cache.Exclusive {
		done()
		return
	}
	t, ok := cc.txns[b]
	if !ok {
		t = &txn{write: true, addr: a}
		cc.beginTrace(t)
		cc.txns[b] = t
		cc.issue(b, t)
	}
	t.write = true // piggyback on (and upgrade) any pending transaction
	// The joined transaction may have been a read whose RREQ is already
	// in flight: its Shared fill does not confer ownership, so the
	// waiter re-verifies and retries (the retry upgrades) until the
	// line is exclusive.
	t.waiters = append(t.waiters, pendingOp{addr: a, checkout: true, op: Op{Done: func(uint64) {
		if line, ok := cc.c.Peek(b); ok && line.State == cache.Exclusive {
			done()
			return
		}
		cc.CheckOut(a, done)
	}}})
}

// CheckIn relinquishes the local copy of the block containing a: the
// programmer's hint that this node is done with the data (the CICO
// "check-in" directive). A dirty copy is written back; a clean copy sends
// a relinquish message so the home retires the pointer; an absent copy is
// a no-op. The directive never blocks: done fires immediately after the
// local flush is issued.
func (cc *CacheCtl) CheckIn(a mem.Addr, done func()) {
	b := mem.BlockOf(a)
	if _, pending := cc.txns[b]; pending {
		// A transaction is in flight; checking in now would race it.
		done()
		return
	}
	line, had := cc.c.Invalidate(b)
	if !had {
		done()
		return
	}
	home := mem.HomeOfBlock(b)
	if line.Dirty {
		cc.f.Send(Msg{Kind: MsgWB, Src: cc.node, Dst: home, Block: b, Words: line.Words})
	} else {
		cc.f.Send(Msg{Kind: MsgREL, Src: cc.node, Dst: home, Block: b})
	}
	cc.wakeWatchers(b)
	done()
}

// Evict models a silent cache replacement of block b: the line is dropped
// without telling the home (a clean line leaves a stale directory pointer,
// which the protocol tolerates by design), except that a dirty line must
// write its data back. It reports whether a line was resident. The model
// checker uses it as the "evict" member of its action alphabet; the
// conformance scenarios model the same thing by hand.
func (cc *CacheCtl) Evict(b mem.Block) bool {
	line, had := cc.c.Invalidate(b)
	if !had {
		return false
	}
	if line.Dirty {
		cc.f.Send(Msg{Kind: MsgWB, Src: cc.node, Dst: mem.HomeOfBlock(b),
			Block: b, Words: line.Words})
	}
	cc.wakeWatchers(b)
	return true
}

// Watch implements the spin-wait primitive: it completes as soon as the
// word at a differs from old. While the value is unchanged the thread
// parks; an invalidation or eviction of the block re-arms a fresh read, so
// the coherence traffic of a real spin loop (re-fetch after each
// invalidation) is modeled without simulating every spin iteration.
func (cc *CacheCtl) Watch(a mem.Addr, old uint64, done func(v uint64)) {
	if cc.f.Spec.Directoryless {
		cc.dlsWatch(a, old, done)
		return
	}
	cc.access(a, Op{Done: func(v uint64) {
		if v != old {
			done(v)
			return
		}
		b := mem.BlockOf(a)
		cc.watchers[b] = append(cc.watchers[b], watcher{a, old, done})
	}}, true)
}

// dlsWatch is the spin-wait primitive on a directoryless machine. With no
// private copy there is no invalidation to park on: the loop re-reads the
// word through the home after a fixed back-off, which is exactly what a
// real spin loop over uncached memory does. The back-off keeps the poll
// traffic bounded and the schedule deterministic.
func (cc *CacheCtl) dlsWatch(a mem.Addr, old uint64, done func(v uint64)) {
	cc.dlsPoll(&watchTag{node: cc.node, a: a, old: old, b: mem.BlockOf(a)}, done)
}

// dlsPoll issues one read of a watched word and re-arms itself through the
// back-off event until the value moves. The tag is allocated once per
// watch and reused for every poll.
func (cc *CacheCtl) dlsPoll(t *watchTag, done func(v uint64)) {
	cc.dlsAccess(t.a, Op{Done: func(v uint64) {
		if v != t.old {
			done(v)
			return
		}
		delay := cc.f.Timing.RetryDelay
		if delay == 0 {
			delay = 1
		}
		cc.f.Engine.OwnedAfter(int(cc.node), delay, t, func() { cc.dlsPoll(t, done) })
	}})
}

// dlsAccess issues one directoryless access: the operation rides a DREQ
// to the home, which applies it to the shared-LLC slice in place and
// answers with the word. The op parks on the per-home FIFO until its
// DRESP arrives.
func (cc *CacheCtl) dlsAccess(a mem.Addr, op Op) {
	b := mem.BlockOf(a)
	home := mem.HomeOfBlock(b)
	cc.direct[home] = append(cc.direct[home], op)
	m := Msg{Kind: MsgDREQ, Src: cc.node, Dst: home, Block: b,
		Off: int(a - b.Base()), DWrite: op.Write, RMW: op.RMW}
	m.Words[0] = op.Value
	cc.f.Send(m)
}

// onDResp completes the oldest outstanding direct access to the replying
// home (see the direct field for why head-of-queue matching is sound).
func (cc *CacheCtl) onDResp(m Msg) {
	q := cc.direct[m.Src]
	if len(q) == 0 {
		// Static message: the deterministic engine makes the failing cycle
		// reproducible, and a Sprintf here would sit on the access hot path.
		panic("proto: DRESP with no outstanding direct access")
	}
	op := q[0]
	copy(q, q[1:])
	q[len(q)-1] = Op{}
	cc.direct[m.Src] = q[:len(q)-1]
	op.Done(m.Words[0])
}

// wakeWatchers re-arms every watcher on block b.
func (cc *CacheCtl) wakeWatchers(b mem.Block) {
	ws := cc.watchers[b]
	if len(ws) == 0 {
		return
	}
	delete(cc.watchers, b)
	for _, w := range ws {
		w := w
		cc.f.Engine.OwnedAfter(int(cc.node), 1,
			blockTag{label: fmt.Sprintf("watch:%d:a%d:o%d", cc.node, w.addr, w.old), b: b},
			func() { cc.Watch(w.addr, w.old, w.done) })
	}
}

// WatchInfo describes one parked watcher: the watched address and the
// value it is still waiting to see change. The model checker folds parked
// watchers into state fingerprints (internal/proto/snapshot.go) and
// asserts the lost-wakeup invariant against them.
type WatchInfo struct {
	Addr mem.Addr
	Old  uint64
}

// ParkedWatchers returns the watchers currently parked on block b, in
// park order. A parked watcher has observed the unchanged value and
// holds no transaction; it re-arms only when the block sees a coherence
// event (invalidation, eviction, displacement, check-in, or a local
// store commit).
func (cc *CacheCtl) ParkedWatchers(b mem.Block) []WatchInfo {
	ws := cc.watchers[b]
	out := make([]WatchInfo, 0, len(ws))
	for _, w := range ws {
		out = append(out, WatchInfo{Addr: w.addr, Old: w.old})
	}
	return out
}

// install puts a fill into the cache and disposes of whatever it displaces.
func (cc *CacheCtl) install(l cache.Line) {
	evicted, was := cc.c.Insert(l)
	if !was {
		return
	}
	cc.f.Counters.Inc("cache.evictions")
	if evicted.Dirty {
		cc.f.Send(Msg{
			Kind: MsgWB, Src: cc.node, Dst: mem.HomeOfBlock(evicted.Block),
			Block: evicted.Block, Words: evicted.Words,
		})
	}
	// A silently dropped clean line leaves a stale directory pointer;
	// the eventual invalidation will be acknowledged as absent.
	cc.wakeWatchers(evicted.Block)
}

// Deliver handles a protocol message addressed to this cache.
//
//swex:hotpath
func (cc *CacheCtl) Deliver(m Msg) {
	switch m.Kind {
	case MsgRDATA:
		cc.fill(m, cache.Shared)
	case MsgWDATA:
		cc.fill(m, cache.Exclusive)
	case MsgBUSY:
		cc.onBusy(m)
	case MsgINV:
		cc.onInv(m)
	case MsgDRESP:
		cc.onDResp(m)
	default:
		panic(fmt.Sprintf("proto: cache received %s", m.Kind))
	}
}

// fill installs arrived data and replays the transaction's waiters.
func (cc *CacheCtl) fill(m Msg, st cache.LineState) {
	b := m.Block
	t, ok := cc.txns[b]
	if !ok {
		// A reply with no transaction: protocol error.
		panic(fmt.Sprintf("proto: node %d got %s for block %d with no transaction",
			cc.node, m.Kind, b))
	}
	delete(cc.txns, b)
	if cc.f.Sink != nil && t.id != 0 {
		op := trace.OpMemRead
		if t.write {
			op = trace.OpMemWrite
		}
		cc.f.Sink.Emit(trace.Event{
			Start: t.begin, End: cc.f.Engine.Now(), Txn: t.id, Arg: int64(b),
			Node: int32(cc.node), Peer: -1,
			Cat: trace.CatMemOp, Op: op, Name: op.String(),
		})
	}
	cc.install(cache.Line{Block: b, State: st, Words: m.Words})
	cc.f.check(b, "fill")
	// Replay waiters synchronously, within the fill delivery event: the
	// transaction store retires the waiting load or store as part of the
	// fill. This must not be deferred — a racing invalidation is
	// guaranteed to be delivered after this event (per-destination
	// ordering), and deferring the replay past it would let ownership be
	// yanked before the pending write commits, livelocking contended
	// writes. Reads hit immediately; a write against a Shared fill
	// re-issues as an upgrade, which is progress.
	for _, w := range t.waiters {
		cc.access(w.addr, w.op, w.watch)
	}
}

// retryTag is the inspection tag of a scheduled BUSY retry. It is a
// struct, not a string, because the retry's behavior depends on whether
// the transaction it captured is still the block's current one — a stale
// retry is a no-op — and the snapshot layer must encode that liveness to
// keep the state fingerprint sound.
type retryTag struct {
	cc *CacheCtl
	b  mem.Block
	t  *txn
}

// live reports whether the retry would re-issue if it fired now.
func (r *retryTag) live() bool { return r.cc.txns[r.b] == r.t }

// onBusy retries the transaction after the configured delay.
func (cc *CacheCtl) onBusy(m Msg) {
	t, ok := cc.txns[m.Block]
	if !ok {
		return // transaction already satisfied (should not happen)
	}
	t.retries++
	cc.Retries++
	cc.f.Counters.Inc("cache.busy_retries")
	b := m.Block
	if cc.f.Sink != nil && t.id != 0 {
		now := cc.f.Engine.Now()
		cc.f.Sink.Emit(trace.Event{
			Start: now, End: now + cc.f.Timing.RetryDelay, Txn: t.id, Arg: int64(b),
			Node: int32(cc.node), Peer: -1,
			Cat: trace.CatCache, Op: trace.OpRetryWait, Name: "retry-wait",
		})
	}
	tag := &retryTag{cc: cc, b: b, t: t}
	cc.f.Engine.OwnedAfter(int(cc.node), cc.f.Timing.RetryDelay, tag, func() {
		if tag.live() {
			cc.issue(b, t)
		}
	})
}

// onInv invalidates the local copy and acknowledges: UPDATE with the data
// if the copy was dirty, ACK otherwise (including the stale-pointer case
// where the copy is already gone).
func (cc *CacheCtl) onInv(m Msg) {
	home := mem.HomeOfBlock(m.Block)
	line, had := cc.c.Invalidate(m.Block)
	if had && line.Dirty {
		cc.f.Send(Msg{
			Kind: MsgUPDATE, Src: cc.node, Dst: home,
			Block: m.Block, Words: line.Words, Epoch: m.Epoch,
		})
	} else {
		cc.f.Send(Msg{
			Kind: MsgACK, Src: cc.node, Dst: home,
			Block: m.Block, Epoch: m.Epoch,
		})
	}
	cc.wakeWatchers(m.Block)
	cc.f.check(m.Block, "invalidate")
}

// OutstandingTxns reports in-flight miss transactions (testing aid).
func (cc *CacheCtl) OutstandingTxns() int { return len(cc.txns) }

// OutstandingDirect reports in-flight directoryless accesses. The
// quiescence checker counts them alongside miss transactions.
func (cc *CacheCtl) OutstandingDirect() int {
	n := 0
	for i := 0; i < cc.f.Nodes(); i++ {
		n += len(cc.direct[mem.NodeID(i)])
	}
	return n
}

// HasTxn reports whether a miss transaction is outstanding for block b.
// The software-only directory's home controller consults it: a local fill
// issued while the remote-access bit was clear is not tracked anywhere, so
// remote requests must retry until it lands and can be flushed.
func (cc *CacheCtl) HasTxn(b mem.Block) bool {
	_, ok := cc.txns[b]
	return ok
}
