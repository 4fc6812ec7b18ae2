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

// Op is one processor memory operation presented to the cache controller.
type Op struct {
	// Write requests exclusive ownership and stores a value.
	Write bool
	// Value is stored on a write (ignored when RMW is set).
	Value uint64
	// RMW, when its Kind is not RMWNone, makes the write an atomic
	// read-modify-write: the new value is RMW.Apply(old), and the
	// operation completes with the old value.
	RMW RMW
	// ID is the issuer's name for the operation. When the operation
	// commits, the fabric's Completer receives (node, ID, value): the
	// value read (for reads and RMWs) or the value written (for plain
	// writes). The fabric never interprets it.
	ID uint64
	// Done, when set, receives the completion instead of the Completer.
	// It suits one-off drivers (tests, benchmarks); a fabric with an
	// outstanding Done operation cannot be cloned.
	Done func(v uint64)
}

// Completer receives the completions of operations issued to a fabric's
// cache controllers (see Op.ID). One completer serves the whole fabric:
// the processor model resolves (node, id) to the issuing thread, the model
// checker counts completions.
type Completer interface {
	// Complete reports that node's operation id committed with value v.
	Complete(node mem.NodeID, id uint64, v uint64)
}

// txn is one outstanding miss transaction: at most one per block per node.
// Records are recycled through the controller's free list (see openTxn),
// so a record's identity does not name a transaction; its gen does.
type txn struct {
	write   bool
	addr    mem.Addr
	waiters []pendingOp
	// gen is the controller's generation stamp for this transaction,
	// unique among its transactions and never zero: a retry captures it
	// to tell its transaction from a later one in the same record.
	gen  uint64
	next *txn // free-list link

	// id and begin exist only while tracing is enabled: id is the trace
	// transaction (flow) id, begin the request-issue cycle. They are
	// invisible to the protocol and to state fingerprints.
	id    uint64
	begin sim.Cycle
}

// waitKind says what a waiting operation does with the value it reads.
type waitKind uint8

const (
	// waitOp completes the operation.
	waitOp waitKind = iota
	// waitCheckOut is a CheckOut's verify-and-retry waiter: it completes
	// once the line is held Exclusive and re-issues the check-out
	// otherwise, so a Shared fill of a joined read transaction retries.
	waitCheckOut
	// waitWatch is a Watch's compare-and-park waiter: it completes when
	// the word differs from old and parks otherwise.
	waitWatch
)

// pendingOp is one operation waiting on a transaction.
// The kind and old value are state: a checkout or watch waiter reacts to
// a fill differently from a plain read, so states differing only in a
// waiter's kind are not equivalent and the fingerprint encodes it.
type pendingOp struct {
	addr mem.Addr
	op   Op
	kind waitKind
	old  uint64 // waitWatch: the value the watcher waits to see change
}

type watcher struct {
	addr mem.Addr
	old  uint64
	op   Op
}

// CacheCtl is the processor side of a node's CMMU: it services the
// processor's loads, stores, and instruction fetches against the cache,
// creates miss transactions, and answers the home's invalidation requests.
type CacheCtl struct {
	f    *Fabric
	node mem.NodeID
	c    *cache.Cache
	cfg  CacheConfig

	txns map[mem.Block]*txn
	// watchers lists the parked watchers in park order: at most one per
	// hardware context (per tracked block in the model checker).
	watchers []watcher
	// txnFree lists the transaction records no block holds, linked
	// through their next fields; txnGen is the last generation stamped.
	txnFree *txn
	txnGen  uint64

	// Free lists of the event receivers this controller schedules (see
	// retryTag, watchTag, ifetchTag), linked through their next fields: a
	// fired receiver returns to its list, so steady-state scheduling
	// allocates nothing.
	retryFree  *retryTag
	watchFree  *watchTag
	ifetchFree *ifetchTag

	// Retries counts BUSY-induced retransmissions.
	Retries uint64
	// IfetchStall accumulates cycles lost to instruction fills.
	IfetchStall sim.Cycle
}

// newCacheCtl builds node's cache controller for fabric f.
func newCacheCtl(f *Fabric, node mem.NodeID, cfg CacheConfig) *CacheCtl {
	cc := &CacheCtl{txns: make(map[mem.Block]*txn)}
	cc.bind(f, node, cfg)
	return cc
}

// bind attaches an empty controller, new or reset, to fabric f as node's,
// with its cache new or reset to the configured geometry.
func (cc *CacheCtl) bind(f *Fabric, node mem.NodeID, cfg CacheConfig) {
	cc.f, cc.node, cc.cfg = f, node, cfg
	if cc.c == nil {
		cc.c = cache.New(cfg.Cache)
	} else {
		cc.c.Reset(cfg.Cache)
	}
}

// reset empties the controller and detaches it from its fabric: no miss
// transactions, parked watchers or statistics. It keeps the storage
// (maps, the watcher list and free lists: the open transactions' records
// join txnFree), so bound again it behaves exactly as newCacheCtl's. The
// cache is not touched: CloneInto overwrites it, and bind resets it.
func (cc *CacheCtl) reset() {
	for _, b := range sortedKeys(cc.f, cc.txns) {
		cc.freeTxn(cc.txns[b])
	}
	clearMap(cc.txns)
	clear(cc.watchers)
	cc.watchers = cc.watchers[:0]
	cc.f = nil
	cc.txnGen = 0
	cc.Retries, cc.IfetchStall = 0, 0
}

// Cache exposes the underlying cache (statistics, tests).
func (cc *CacheCtl) Cache() *cache.Cache { return cc.c }

// HasBlock reports whether the block is resident, without perturbing
// statistics. The home controller uses it to decide whether the
// software-only directory needs to flush the local copy.
func (cc *CacheCtl) HasBlock(b mem.Block) (cache.Line, bool) { return cc.c.Peek(b) }

// complete reports an operation's commit to its issuer.
func (cc *CacheCtl) complete(op *Op, v uint64) {
	if op.Done != nil {
		op.Done(v)
		return
	}
	if cc.f.Completer != nil {
		cc.f.Completer.Complete(cc.node, op.ID, v)
	}
}

// Access presents one data operation. It completes (see Op.ID) when it
// commits; for misses that is when the fill (or ownership grant) arrives
// and the operation replays.
func (cc *CacheCtl) Access(a mem.Addr, op Op) { cc.access(pendingOp{addr: a, op: op}) }

// access presents one operation and, on a hit, finishes it.
func (cc *CacheCtl) access(w pendingOp) {
	b := mem.BlockOf(w.addr)
	off := int(w.addr - b.Base())
	if line, ok := cc.c.Lookup(b, false); ok {
		if !w.op.Write {
			cc.finish(w, line.Words[off])
			return
		}
		if line.State == cache.Exclusive {
			old := line.Words[off]
			nv := w.op.Value
			if w.op.RMW.Kind != RMWNone {
				nv = w.op.RMW.Apply(old)
			}
			line.Words[off] = nv
			line.Dirty = true
			// A locally committed store is a coherence event for parked
			// watchers too: a consumer parked on this node would otherwise
			// never observe a producer writing from the same node (no
			// invalidation is generated for an exclusive hit).
			cc.wakeWatchers(b)
			if w.op.RMW.Kind != RMWNone {
				cc.finish(w, old)
			} else {
				cc.finish(w, nv)
			}
			return
		}
		// Shared copy, write requested: upgrade through the home.
	}
	cc.enqueue(w)
}

// finish hands a committed access's value to its waiter: a plain
// operation completes, a check-out completes only once the line is
// exclusive, and a watch completes only once the value has changed.
func (cc *CacheCtl) finish(w pendingOp, v uint64) {
	switch w.kind {
	case waitOp:
		cc.complete(&w.op, v)
	case waitCheckOut:
		if line, ok := cc.c.Peek(mem.BlockOf(w.addr)); ok && line.State == cache.Exclusive {
			cc.complete(&w.op, 0)
			return
		}
		cc.CheckOut(w.addr, w.op)
	case waitWatch:
		if v != w.old {
			cc.complete(&w.op, v)
			return
		}
		cc.watchers = append(cc.watchers, watcher{w.addr, w.old, w.op})
	default:
		panic("proto: unknown wait kind")
	}
}

// enqueue adds the operation to the block's miss transaction, creating and
// issuing one if necessary.
func (cc *CacheCtl) enqueue(w pendingOp) {
	b := mem.BlockOf(w.addr)
	t, ok := cc.txns[b]
	if !ok {
		t = cc.openTxn(b, w.op.Write, w.addr)
	}
	t.waiters = append(t.waiters, w)
}

// openTxn opens block b's miss transaction in a record from the free
// list, stamped with the next generation, and issues its request.
func (cc *CacheCtl) openTxn(b mem.Block, write bool, a mem.Addr) *txn {
	t := cc.newTxn()
	t.write, t.addr = write, a
	cc.beginTrace(t)
	cc.txns[b] = t
	cc.issue(b, t)
	return t
}

// newTxn takes an empty record from the free list, or allocates one, and
// stamps it with the next generation.
func (cc *CacheCtl) newTxn() *txn {
	t := cc.txnFree
	if t != nil {
		cc.txnFree = t.next
	} else {
		t = new(txn)
	}
	cc.txnGen++
	*t = txn{waiters: t.waiters[:0], gen: cc.txnGen}
	return t
}

// freeTxn returns a record no block holds any more to the free list. Its
// waiters are cleared, so the list keeps no operation's Done callback.
func (cc *CacheCtl) freeTxn(t *txn) {
	clear(t.waiters)
	t.waiters, t.next, cc.txnFree = t.waiters[:0], cc.txnFree, t
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

// ifetchTag is the inspection tag and receiver of an instruction fill:
// when it fires, the fetched block is installed and the fetch's
// continuation fires.
type ifetchTag struct {
	cc   *CacheCtl
	b    mem.Block
	done sim.Caller
	next *ifetchTag // free-list link
}

// Fire installs the fill, returning the tag to its free list first.
func (t *ifetchTag) Fire() {
	cc, b, done := t.cc, t.b, t.done
	t.done, t.next, cc.ifetchFree = nil, cc.ifetchFree, t
	cc.install(cache.Line{Block: b, State: cache.Shared})
	done.Fire()
}

// Ifetch presents one instruction fetch for the block containing pc and
// fires done when the instruction is available (immediately on a hit).
// Instructions are read-only and homed locally, so a miss fills from local
// memory without coherence traffic; what matters is that fills occupy a
// line in the combined cache and can displace shared data.
func (cc *CacheCtl) Ifetch(pc mem.Addr, done sim.Caller) {
	if cc.cfg.PerfectIfetch {
		done.Fire()
		return
	}
	b := mem.BlockOf(pc)
	if _, ok := cc.c.Lookup(b, true); ok {
		done.Fire()
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
	t := cc.ifetchFree
	if t != nil {
		cc.ifetchFree = t.next
	} else {
		t = &ifetchTag{cc: cc}
	}
	t.b, t.done, t.next = b, done, nil
	cc.f.Engine.OwnedAfterCall(int(cc.node), lat, t, t)
}

// CheckOut acquires exclusive ownership of the block containing a without
// modifying it — the CICO "check-out" directive. A thread that checks a
// block out before its read-modify-write sequence pays one transaction
// instead of a read recall followed by an upgrade. The operation (its ID
// or Done; the rest of op is ignored) completes with value zero when
// ownership is local.
func (cc *CacheCtl) CheckOut(a mem.Addr, op Op) {
	b := mem.BlockOf(a)
	if line, ok := cc.c.Lookup(b, false); ok && line.State == cache.Exclusive {
		cc.complete(&op, 0)
		return
	}
	t, ok := cc.txns[b]
	if !ok {
		t = cc.openTxn(b, true, a)
	}
	t.write = true // piggyback on (and upgrade) any pending transaction
	// The joined transaction may have been a read whose RREQ is already
	// in flight: its Shared fill does not confer ownership, so the
	// waiter re-verifies and retries (the retry upgrades) until the
	// line is exclusive.
	t.waiters = append(t.waiters, pendingOp{addr: a, op: Op{ID: op.ID, Done: op.Done}, kind: waitCheckOut})
}

// CheckIn relinquishes the local copy of the block containing a: the
// programmer's hint that this node is done with the data (the CICO
// "check-in" directive). A dirty copy is written back; a clean copy sends
// a relinquish message so the home retires the pointer; an absent copy is
// a no-op. The directive never blocks: it is complete when CheckIn
// returns.
func (cc *CacheCtl) CheckIn(a mem.Addr) {
	b := mem.BlockOf(a)
	if _, pending := cc.txns[b]; pending {
		// A transaction is in flight; checking in now would race it.
		return
	}
	line, had := cc.c.Invalidate(b)
	if !had {
		return
	}
	home := mem.HomeOfBlock(b)
	if line.Dirty {
		cc.f.Send(Msg{Kind: MsgWB, Src: cc.node, Dst: home, Block: b, Words: line.Words})
	} else {
		cc.f.Send(Msg{Kind: MsgREL, Src: cc.node, Dst: home, Block: b})
	}
	cc.wakeWatchers(b)
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

// Watch implements the spin-wait primitive: the operation (its ID or Done;
// the rest of op is ignored) completes, with the new value, as soon as the
// word at a differs from old. While the value is unchanged the thread
// parks; an invalidation or eviction of the block re-arms a fresh read, so
// the coherence traffic of a real spin loop (re-fetch after each
// invalidation) is modeled without simulating every spin iteration.
func (cc *CacheCtl) Watch(a mem.Addr, old uint64, op Op) {
	cc.access(pendingOp{addr: a, op: Op{ID: op.ID, Done: op.Done}, kind: waitWatch, old: old})
}

// watchTag is the inspection tag and receiver of a scheduled watch
// re-read: the one-cycle re-arm of a parked watcher after a coherence
// event. Its identity (node, address, old value) is what the snapshot
// layer encodes; the operation handle is not state.
type watchTag struct {
	cc   *CacheCtl
	a    mem.Addr
	old  uint64
	op   Op
	next *watchTag // free-list link
}

// Fire re-issues the watch, returning the tag to its free list first.
func (t *watchTag) Fire() {
	cc, a, old, op := t.cc, t.a, t.old, t.op
	t.op, t.next, cc.watchFree = Op{}, cc.watchFree, t
	cc.Watch(a, old, op)
}

// label renders the tag for counterexample narration.
func (t *watchTag) label() string {
	return fmt.Sprintf("watch:%d:a%d:o%d", t.cc.node, t.a, t.old)
}

// scheduleWatch re-issues a watch one cycle from now.
func (cc *CacheCtl) scheduleWatch(a mem.Addr, old uint64, op Op) {
	t := cc.watchFree
	if t != nil {
		cc.watchFree = t.next
	} else {
		t = &watchTag{cc: cc}
	}
	t.a, t.old, t.op, t.next = a, old, op, nil
	cc.f.Engine.OwnedAfterCall(int(cc.node), 1, t, t)
}

// wakeWatchers re-arms every watcher on block b, in park order. Every
// exclusive store hit calls it, almost always with no watcher parked.
func (cc *CacheCtl) wakeWatchers(b mem.Block) {
	if len(cc.watchers) == 0 {
		return
	}
	kept := cc.watchers[:0]
	for _, w := range cc.watchers {
		if mem.BlockOf(w.addr) == b {
			cc.scheduleWatch(w.addr, w.old, w.op)
		} else {
			kept = append(kept, w)
		}
	}
	clear(cc.watchers[len(kept):])
	cc.watchers = kept
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
	var out []WatchInfo
	for _, w := range cc.watchers {
		if mem.BlockOf(w.addr) == b {
			out = append(out, WatchInfo{Addr: w.addr, Old: w.old})
		}
	}
	return out
}

// Parked counts the watchers parked on block b.
func (cc *CacheCtl) Parked(b mem.Block) int {
	n := 0
	for _, w := range cc.watchers {
		if mem.BlockOf(w.addr) == b {
			n++
		}
	}
	return n
}

// install puts a fill into the cache and disposes of whatever it displaces.
func (cc *CacheCtl) install(l cache.Line) {
	evicted, was := cc.c.Insert(l)
	if !was {
		return
	}
	cc.f.Counters.Inc(ctrEvictions)
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
func (cc *CacheCtl) Deliver(m *Msg) {
	switch m.Kind {
	case MsgRDATA:
		cc.fill(m, cache.Shared)
	case MsgWDATA:
		cc.fill(m, cache.Exclusive)
	case MsgBUSY:
		cc.onBusy(m)
	case MsgINV:
		cc.onInv(m)
	default:
		panic(fmt.Sprintf("proto: cache received %s", m.Kind))
	}
}

// fill installs arrived data and replays the transaction's waiters.
func (cc *CacheCtl) fill(m *Msg, st cache.LineState) {
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
	// re-issues as an upgrade, which is progress. The record is freed only
	// after the replay, which may open the block's next transaction.
	for _, w := range t.waiters {
		cc.access(w)
	}
	cc.freeTxn(t)
}

// retryTag is the inspection tag and receiver of a scheduled BUSY retry.
// The retry's behavior depends on whether the transaction it captured, by
// generation, is still the block's current one — a stale retry is a
// no-op — and the snapshot layer encodes that liveness to keep the state
// fingerprint sound.
type retryTag struct {
	cc   *CacheCtl
	b    mem.Block
	gen  uint64    // the captured transaction's; 0 matches none
	next *retryTag // free-list link
}

// live reports whether the retry would re-issue if it fired now.
func (r *retryTag) live() bool {
	t, ok := r.cc.txns[r.b]
	return ok && t.gen == r.gen
}

// Fire re-issues the transaction if it is still live, returning the tag
// to its free list first.
func (r *retryTag) Fire() {
	cc, b, live := r.cc, r.b, r.live()
	r.next, cc.retryFree = cc.retryFree, r
	if live {
		cc.issue(b, cc.txns[b])
	}
}

// onBusy retries the transaction after the configured delay.
func (cc *CacheCtl) onBusy(m *Msg) {
	t, ok := cc.txns[m.Block]
	if !ok {
		return // transaction already satisfied (should not happen)
	}
	cc.Retries++
	cc.f.Counters.Inc(ctrBusyRetries)
	b := m.Block
	if cc.f.Sink != nil && t.id != 0 {
		now := cc.f.Engine.Now()
		cc.f.Sink.Emit(trace.Event{
			Start: now, End: now + cc.f.Timing.RetryDelay, Txn: t.id, Arg: int64(b),
			Node: int32(cc.node), Peer: -1,
			Cat: trace.CatCache, Op: trace.OpRetryWait, Name: "retry-wait",
		})
	}
	r := cc.retryFree
	if r != nil {
		cc.retryFree = r.next
	} else {
		r = &retryTag{cc: cc}
	}
	r.b, r.gen, r.next = b, t.gen, nil
	cc.f.Engine.OwnedAfterCall(int(cc.node), cc.f.Timing.RetryDelay, r, r)
}

// onInv invalidates the local copy and acknowledges: UPDATE with the data
// if the copy was dirty, ACK otherwise (including the stale-pointer case
// where the copy is already gone).
func (cc *CacheCtl) onInv(m *Msg) {
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

// HasTxn reports whether a miss transaction is outstanding for block b.
// The software-only directory's home controller consults it: a local fill
// issued while the remote-access bit was clear is not tracked anywhere, so
// remote requests must retry until it lands and can be flushed.
func (cc *CacheCtl) HasTxn(b mem.Block) bool {
	_, ok := cc.txns[b]
	return ok
}
