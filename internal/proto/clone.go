package proto

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"swex/internal/mem"
	"swex/internal/sim"
	"swex/internal/stats"
)

// ErrNotCopyable reports that Clone met state it cannot copy: a pending
// event whose receiver the fabric does not own (a processor thread's
// continuation, an instruction fetch resuming one), an operation carrying
// a Done callback, or installed Software or TrapScheduler implementations
// other than NopSoftware and ImmediateTraps.
var ErrNotCopyable = errors.New("proto: fabric state is not copyable")

// Clone returns an independent fabric in the same simulated state: the
// engine's clock, key streams and pending queue, every directory, cache,
// miss transaction, parked watcher and direct-access queue, the in-flight
// registry, memory, the mesh and trap-server schedules, the software's
// sharer lists, the memory tier and the fault's progress. Driven
// identically, the clone behaves exactly as this fabric would.
//
// Statistics start at zero, observers (Trace, Sink, the engine's
// Observer, the mesh's Obs) are not carried, and completions of the
// copied operations go to completer. Clone leaves the fabric untouched
// and returns an error wrapping ErrNotCopyable when some state cannot be
// copied.
func (f *Fabric) Clone(completer Completer) (*Fabric, error) {
	return f.CloneInto(nil, completer)
}

// CloneInto is Clone reusing the storage of dst, a fabric no longer in
// use (typically an earlier clone of the same machine), when it is not
// nil: dst's state is overwritten and its pending work dropped. The model
// checker forks thousands of worlds a second this way without
// allocating. After an error dst holds no usable state.
func (f *Fabric) CloneInto(dst *Fabric, completer Completer) (*Fabric, error) {
	switch f.Soft.(type) {
	case nil, *NopSoftware:
	default:
		return nil, fmt.Errorf("%w: software %T", ErrNotCopyable, f.Soft)
	}
	traps, ok := f.Traps.(*ImmediateTraps)
	if !ok {
		return nil, fmt.Errorf("%w: trap scheduler %T", ErrNotCopyable, f.Traps)
	}
	n := dst
	if n == nil || len(n.homes) != len(f.homes) {
		n = &Fabric{homes: make([]*HomeCtl, len(f.homes)), caches: make([]*CacheCtl, len(f.caches))}
	} else {
		n.reclaim()
	}
	n.Mem = f.Mem.CloneInto(n.Mem)
	n.Timing, n.Spec = f.Timing, f.Spec
	n.MigratoryDetect, n.BatchReads = f.MigratoryDetect, f.BatchReads
	if n.Counters == nil {
		n.Counters = stats.NewCounters()
	} else {
		n.Counters.Reset()
	}
	n.Trace, n.Sink = nil, nil
	n.Fault, n.faultSeen = f.Fault, f.faultSeen
	n.Completer = completer
	n.txnSeq, n.msgSeq = 0, 0
	n.checker = nil
	if f.checker != nil {
		n.checker = newChecker(n)
	}
	for i, h := range f.homes {
		n.homes[i] = h.cloneInto(n.homes[i], n)
	}
	for i, cc := range f.caches {
		c, err := cc.cloneInto(n.caches[i], n)
		if err != nil {
			return nil, err
		}
		n.caches[i] = c
	}
	for _, fl := range f.inflight {
		c := n.grabFlight()
		c.m = fl.m
		n.inflight = append(n.inflight, c)
	}
	engine, err := f.Engine.CloneInto(n.Engine, func(c sim.Caller, tag any) (sim.Caller, any, error) {
		r, err := f.remap(n, c)
		if err != nil {
			return nil, nil, err
		}
		if tag != c {
			return nil, nil, fmt.Errorf("%w: pending %T tagged %T", ErrNotCopyable, c, tag)
		}
		return r, r, nil
	})
	if err != nil {
		return nil, err
	}
	n.Engine = engine
	n.Net = f.Net.CloneInto(n.Net, engine)
	nt, _ := n.Traps.(*ImmediateTraps)
	n.Traps = traps.cloneInto(nt, engine)
	n.Tier = f.Tier.Clone(engine)
	switch s := f.Soft.(type) {
	case nil:
		n.Soft = nil
	case *NopSoftware:
		ns, _ := n.Soft.(*NopSoftware)
		n.Soft = s.cloneInto(ns, n)
	}
	return n, nil
}

// reclaim returns the receivers of the fabric's pending work to its
// pools, ahead of CloneInto overwriting the fabric: the work is dropped,
// so the receivers are free.
func (f *Fabric) reclaim() {
	for i, fl := range f.inflight {
		fl.next, f.flightFree = f.flightFree, fl
		f.inflight[i] = nil
	}
	f.inflight = f.inflight[:0]
	f.snapEvents = f.Engine.PendingTagged(f.snapEvents[:0])
	for _, ev := range f.snapEvents {
		switch r := ev.Tag.(type) {
		case *procTag:
			r.next, r.h.jobFree = r.h.jobFree, r
		case *trapTag:
			if r.targets != nil {
				r.h.releaseInv(r.targets)
				r.targets = nil
			}
			r.next, r.h.trapFree = r.h.trapFree, r
		case *retryTag:
			r.t, r.next, r.cc.retryFree = nil, r.cc.retryFree, r
		case *watchTag:
			r.op, r.next, r.cc.watchFree = Op{}, r.cc.watchFree, r
		case *ifetchTag:
			r.done, r.next, r.cc.ifetchFree = nil, r.cc.ifetchFree, r
		}
	}
	clear(f.snapEvents)
}

// grabFlight takes an in-flight registry entry from the free list, or
// allocates one.
func (f *Fabric) grabFlight() *flight {
	fl := f.flightFree
	if fl == nil {
		return &flight{f: f}
	}
	f.flightFree, fl.next = fl.next, nil
	return fl
}

// remap maps one of f's pending event receivers onto clone n, taking the
// copy from n's pools.
func (f *Fabric) remap(n *Fabric, c sim.Caller) (sim.Caller, error) {
	switch r := c.(type) {
	case *flight:
		i := slices.Index(f.inflight, r)
		if i < 0 {
			return nil, fmt.Errorf("%w: delivery of %s is not in flight", ErrNotCopyable, r.m)
		}
		return n.inflight[i], nil
	case *procTag:
		h := n.homes[r.h.node]
		t := h.jobFree
		if t != nil {
			h.jobFree = t.next
		} else {
			t = &procTag{h: h, node: h.node}
		}
		t.m, t.next = r.m, nil
		return t, nil
	case *trapTag:
		h := n.homes[r.h.node]
		t := h.grabTrap(r.kind, r.b, r.r)
		t.last = r.last
		if r.targets != nil {
			t.targets = append(h.grabInv(), r.targets...)
		}
		return t, nil
	case *retryTag:
		cc := n.caches[r.cc.node]
		t := cc.retryFree
		if t != nil {
			cc.retryFree = t.next
		} else {
			t = &retryTag{cc: cc}
		}
		t.b, t.t, t.next = r.b, cc.txns[r.b], nil
		if !r.live() {
			t.t = &txn{} // stale: matches no transaction, now or later
		}
		return t, nil
	case *watchTag:
		if r.op.Done != nil {
			return nil, fmt.Errorf("%w: watch with a Done callback", ErrNotCopyable)
		}
		cc := n.caches[r.cc.node]
		t := cc.watchFree
		if t != nil {
			cc.watchFree = t.next
		} else {
			t = &watchTag{cc: cc}
		}
		t.a, t.old, t.op, t.next = r.a, r.old, r.op, nil
		return t, nil
	default:
		return nil, fmt.Errorf("%w: pending %T", ErrNotCopyable, c)
	}
}

// cloneInto copies the home controller's protocol state onto fabric f,
// reusing dst's storage when dst is not nil. Statistics start at zero.
func (h *HomeCtl) cloneInto(dst *HomeCtl, f *Fabric) *HomeCtl {
	c := dst
	if c == nil {
		c = newHomeCtl(f, h.node, len(f.homes))
	}
	c.f, c.node = f, h.node
	c.dir = h.dir.CloneInto(c.dir)
	c.srv = h.srv.Fresh()
	copyMap(c.swTxn, h.swTxn)
	copyMap(c.reads, h.reads)
	copyMap(c.pendingWrite, h.pendingWrite)
	copyMap(c.overrides, h.overrides)
	if len(c.mig) > 0 {
		clear(c.mig)
	}
	for _, b := range sortedKeys(f, h.mig) {
		st := *h.mig[b]
		c.mig[b] = &st
	}
	c.Traps, c.BusySent, c.StrayAcks = 0, 0, 0
	return c
}

// cloneInto copies the cache controller's state onto fabric f, reusing
// dst's storage when dst is not nil. Statistics start at zero.
func (cc *CacheCtl) cloneInto(dst *CacheCtl, f *Fabric) (*CacheCtl, error) {
	c := dst
	if c == nil {
		c = newCacheCtl(f, cc.node, cc.cfg)
	}
	c.f, c.node, c.cfg = f, cc.node, cc.cfg
	c.c = cc.c.CloneInto(c.c)
	// An operation completing through a Done callback would complete in
	// the clone through the same callback: refuse rather than alias it.
	callback := false
	if len(c.txns) > 0 {
		clear(c.txns)
	}
	for i, b := range sortedKeys(f, cc.txns) {
		t := cc.txns[b]
		callback = callback || hasCallback(t.waiters)
		if i == len(c.copiedTxns) {
			c.copiedTxns = append(c.copiedTxns, new(txn))
		}
		nt := c.copiedTxns[i]
		*nt = txn{write: t.write, addr: t.addr, waiters: append(nt.waiters[:0], t.waiters...), retries: t.retries}
		c.txns[b] = nt
	}
	for _, b := range sortedKeys(f, c.watchers) {
		if _, ok := cc.watchers[b]; !ok {
			delete(c.watchers, b)
		}
	}
	for _, b := range sortedKeys(f, cc.watchers) {
		ws := cc.watchers[b]
		for _, w := range ws {
			callback = callback || w.op.Done != nil
		}
		c.watchers[b] = append(c.watchers[b][:0], ws...)
	}
	for i := 0; i < f.Nodes(); i++ {
		home := mem.NodeID(i)
		q := cc.direct[home]
		callback = callback || hasCallback(q)
		if len(q) > 0 || len(c.direct[home]) > 0 {
			c.direct[home] = append(c.direct[home][:0], q...)
		}
	}
	if callback {
		return nil, fmt.Errorf("%w: outstanding operation with a Done callback", ErrNotCopyable)
	}
	c.Retries, c.IfetchStall = 0, 0
	return c, nil
}

// hasCallback reports whether a waiting operation carries a Done callback.
func hasCallback(ws []pendingOp) bool {
	for _, w := range ws {
		if w.op.Done != nil {
			return true
		}
	}
	return false
}

// copyMap overwrites dst with src's entries. The length checks skip the
// empty maps most copies meet, which would otherwise still pay for a
// randomized iteration start.
func copyMap[K comparable, V any](dst, src map[K]V) {
	if len(dst) > 0 {
		clear(dst)
	}
	if len(src) > 0 {
		maps.Copy(dst, src)
	}
}

// sortedKeys returns m's keys in ascending order, in f's scratch storage:
// copying entries in a fixed order keeps the copy independent of map
// iteration order. The result is valid until the next call.
func sortedKeys[V any](f *Fabric, m map[mem.Block]V) []mem.Block {
	if len(m) == 0 {
		return nil
	}
	keys := f.cloneKeys[:0]
	for b := range m {
		keys = append(keys, b)
	}
	slices.Sort(keys)
	f.cloneKeys = keys
	return keys
}

// cloneInto copies the sharer lists and cost for fabric f, reusing dst's
// storage when dst is not nil.
func (s *NopSoftware) cloneInto(dst *NopSoftware, f *Fabric) *NopSoftware {
	if dst == nil {
		dst = NewNopSoftware()
	}
	if len(dst.sets) > 0 {
		clear(dst.sets)
	}
	for i, b := range sortedKeys(f, s.sets) {
		if i == len(dst.copied) {
			dst.copied = append(dst.copied, nil)
		}
		dst.copied[i] = append(dst.copied[i][:0], s.sets[b]...)
		dst.sets[b] = dst.copied[i]
	}
	dst.FixedCost = s.FixedCost
	return dst
}

// cloneInto copies the per-node schedules onto engine, with fresh
// statistics, reusing dst's storage when it has as many nodes.
func (t *ImmediateTraps) cloneInto(dst *ImmediateTraps, engine *sim.Engine) *ImmediateTraps {
	if dst == nil || len(dst.servers) != len(t.servers) {
		dst = &ImmediateTraps{servers: make([]sim.Server, len(t.servers))}
	}
	dst.engine = engine
	for i := range t.servers {
		dst.servers[i] = t.servers[i].Fresh()
	}
	return dst
}
