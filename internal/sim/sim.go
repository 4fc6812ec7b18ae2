// Package sim provides the deterministic discrete-event simulation engine
// that underlies the machine model. It is the analog of the NWO simulator's
// core scheduler: a cycle-accurate event queue with a total ordering that
// makes every simulation run bit-for-bit reproducible.
//
// Determinism is the load-bearing property. The paper's methodology
// (Section 3) depends on NWO's "deterministic behavior and non-intrusive
// observation functions"; all controlled experiments in this repository
// assume that re-running a configuration yields the identical cycle count.
// The engine guarantees this by a total event order: first by cycle, then
// by an event key.
//
// Every event has one form: a Caller, a preallocated receiver whose Fire
// method runs when the event's cycle arrives, plus an optional inspection
// tag. Receivers are data, not closures, so a queue of them can be
// inspected (PendingTagged, Next) and copied (CloneInto).
//
// Two keying disciplines exist:
//
//   - Unkeyed (AtCall, AfterCall): the key is a per-engine sequence
//     number assigned at scheduling time, so same-cycle events fire in
//     the order they were scheduled. Standalone engine users (the model
//     checker, tests) use this form.
//   - Owned (OwnedAtCall, OwnedAfterCall, after SetStreams): the key is
//     (owner, cnt) where owner is the model entity — here, the node — on
//     whose behalf the event is scheduled and cnt is drawn from the
//     owner's private counter stream. Same-cycle events fire in node
//     order, and within a node in that node's own scheduling order. An
//     owner's stream is consumed only by that owner's own deterministic
//     execution, so an event's position among its same-cycle peers does
//     not depend on how scheduling calls from different nodes happen to
//     interleave: a change that adds or removes work on one node cannot
//     reorder ties among the others. The machine uses owned scheduling
//     for every event, and every committed exhibit is measured under it.
package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Cycle is a point in simulated time, measured in processor clock cycles.
// Alewife's clock runs at 33 MHz, so 33e6 cycles correspond to one second
// of simulated execution.
type Cycle uint64

// CyclesPerSecond is the Alewife node clock rate (33 MHz Sparcle).
const CyclesPerSecond = 33_000_000

// Seconds converts a cycle count to simulated seconds at the Alewife clock.
func (c Cycle) Seconds() float64 { return float64(c) / CyclesPerSecond }

// Caller is the receiver of a scheduled event: its Fire method runs when
// the event's cycle arrives. A hot caller keeps one Caller per logical
// operation (or a free list of them) and schedules it with AtCall; a
// pointer stores into the event without a closure allocation, and
// without the boxing an interface conversion of a non-pointer would cost.
type Caller interface {
	// Fire runs the event's work when its cycle arrives.
	Fire()
}

// unkeyedOwner is the owner value for unkeyed events. It is the maximum
// int32, so unkeyed events sort after every owned event at the same cycle;
// among themselves they keep scheduling order via the engine sequence.
const unkeyedOwner = int32(^uint32(0) >> 1)

type scheduledEvent struct {
	at    Cycle
	owner int32  // key owner (node), or unkeyedOwner
	cnt   uint64 // owner-stream position, or engine sequence when unkeyed
	call  Caller
	tag   any // optional inspection tag
	index int // heap index; -1 once popped
}

// before is the engine's total event order: cycle, then key owner, then
// key counter. Keys are unique, so no two pending events compare equal
// and the firing order does not depend on the heap's internal layout.
func (a *scheduledEvent) before(b *scheduledEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.cnt < b.cnt
}

// eventHeap is a binary min-heap of pending events under before. Each
// event records its slot in index.
type eventHeap []*scheduledEvent

// push adds ev to the heap.
func (h *eventHeap) push(ev *scheduledEvent) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event with its index cleared.
func (h *eventHeap) pop() *scheduledEvent {
	old := *h
	n := len(old) - 1
	ev := old[0]
	if n > 0 {
		old[0] = old[n]
		old[0].index = 0
	}
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	ev.index = -1
	return ev
}

// up moves the event at slot j toward the root until its parent is
// earlier.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(h[i]) {
			break
		}
		h[j] = h[i]
		h[j].index = j
		j = i
	}
	h[j] = ev
	ev.index = j
}

// down moves the event at slot i toward the leaves until both children
// are later.
func (h eventHeap) down(i int) {
	ev := h[i]
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
}

// Engine is a discrete-event scheduler with deterministic tie-breaking.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    Cycle
	seq    uint64
	events eventHeap
	fired  uint64
	free   []*scheduledEvent // released events awaiting reuse

	// streams holds the per-owner key counters for owned scheduling (see
	// the package comment). Nil until SetStreams; owned calls then fall
	// back to unkeyed scheduling.
	streams []uint64

	// Observer, when non-nil, is invoked after every dispatched event
	// with the clock and the number of events still pending. It feeds
	// the tracing subsystem's engine counters; it must not schedule
	// events. Nil (the default) costs one branch per Step.
	Observer func(now Cycle, pending int)
}

// NewEngine returns an empty engine positioned at cycle zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have executed since construction.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.events) }

// AtCall schedules a preallocated Caller to fire at the absolute cycle
// at, with an inspection tag. Tags never affect execution; they exist so
// external observers (the model checker's state-fingerprint layer) can
// enumerate what is queued. The event slot comes from the engine's free
// list and the receiver is caller-owned, so steady-state scheduling
// allocates nothing. Scheduling in the past panics: it indicates a
// protocol bug, and silently reordering time would destroy the
// determinism guarantee.
func (e *Engine) AtCall(at Cycle, tag any, c Caller) {
	e.schedule(at, unkeyedOwner, e.seq, tag, c)
}

// AfterCall schedules a Caller to fire delay cycles from now (see AtCall).
func (e *Engine) AfterCall(delay Cycle, tag any, c Caller) {
	e.AtCall(e.now+delay, tag, c)
}

// schedule acquires an event slot (reusing a released one when possible)
// and enqueues it under the given canonical key.
func (e *Engine) schedule(at Cycle, owner int32, cnt uint64, tag any, c Caller) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, now %d", at, e.now))
	}
	var ev *scheduledEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(scheduledEvent)
	}
	ev.at, ev.owner, ev.cnt, ev.tag, ev.call = at, owner, cnt, tag, c
	e.seq++
	e.events.push(ev)
}

// SetStreams installs the per-owner key counter streams, switching the
// Owned scheduling calls from the unkeyed fallback to canonical
// (owner, cnt) keys. The machine installs one slice, indexed by node.
func (e *Engine) SetStreams(streams []uint64) { e.streams = streams }

// ownedKey resolves the key for an owned scheduling call: the owner's
// next stream position, or the unkeyed fallback when no streams are
// installed (standalone engine users never install streams, and their
// owned calls then behave exactly like the unkeyed forms).
//
//swex:hotpath
func (e *Engine) ownedKey(owner int) (int32, uint64) {
	if e.streams == nil {
		return unkeyedOwner, e.seq
	}
	c := e.streams[owner]
	e.streams[owner]++
	return int32(owner), c
}

// OwnedAtCall schedules a Caller at the absolute cycle at with a
// canonical (owner, cnt) key drawn from owner's stream (see the package
// comment and AtCall).
//
//swex:hotpath
func (e *Engine) OwnedAtCall(owner int, at Cycle, tag any, c Caller) {
	o, cnt := e.ownedKey(owner)
	e.schedule(at, o, cnt, tag, c)
}

// OwnedAfterCall schedules a Caller delay cycles from now with a
// canonical key (see OwnedAtCall).
//
//swex:hotpath
func (e *Engine) OwnedAfterCall(owner int, delay Cycle, tag any, c Caller) {
	e.OwnedAtCall(owner, e.now+delay, tag, c)
}

// TaggedEvent describes one pending event for inspection: its firing cycle
// and the tag it was scheduled with (nil for untagged events).
type TaggedEvent struct {
	// At is the cycle the event will fire.
	At Cycle
	// Tag is the caller-supplied inspection tag, nil if untagged.
	Tag any

	owner int32
	cnt   uint64
}

// Next describes the event Step would fire next; ok is false when the
// queue is empty.
func (e *Engine) Next() (ev TaggedEvent, ok bool) {
	if len(e.events) == 0 {
		return TaggedEvent{}, false
	}
	root := e.events[0]
	return TaggedEvent{At: root.at, Tag: root.tag}, true
}

// PendingTagged appends the pending events to dst in firing order (cycle,
// then event key) and returns the extended slice. The entries are a
// snapshot: mutating them does not affect the queue. The order is exactly
// the order Step would fire them if nothing else were scheduled, which is
// what makes it usable as part of a canonical machine-state fingerprint.
// Reusing dst across calls makes the inspection allocation-free.
func (e *Engine) PendingTagged(dst []TaggedEvent) []TaggedEvent {
	n := len(dst)
	for _, ev := range e.events {
		dst = append(dst, TaggedEvent{At: ev.at, Tag: ev.tag, owner: ev.owner, cnt: ev.cnt})
	}
	slices.SortFunc(dst[n:], func(a, b TaggedEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.owner, b.owner); c != 0 {
			return c
		}
		return cmp.Compare(a.cnt, b.cnt)
	})
	return dst
}

// CloneInto returns an engine with this one's clock, key state and
// pending queue, each pending event's receiver and tag passed through
// remap, which maps them onto the copy's own objects. The copy's Fired
// count starts at zero and its Observer is unset. A non-nil dst lends
// its storage: its state is overwritten and its pending events are
// dropped without firing. The first error remap returns aborts the copy
// and is returned; dst then holds no usable state.
func (e *Engine) CloneInto(dst *Engine, remap func(c Caller, tag any) (Caller, any, error)) (*Engine, error) {
	c := dst
	if c == nil {
		c = &Engine{}
	}
	for _, ev := range c.events {
		c.release(ev)
	}
	c.events = c.events[:0]
	c.now, c.seq, c.fired, c.Observer = e.now, e.seq, 0, nil
	if e.streams == nil {
		c.streams = nil
	} else {
		c.streams = append(c.streams[:0], e.streams...)
	}
	for i, ev := range e.events {
		call, tag, err := remap(ev.call, ev.tag)
		if err != nil {
			return nil, err
		}
		var ne *scheduledEvent
		if n := len(c.free); n > 0 {
			ne = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
		} else {
			ne = new(scheduledEvent)
		}
		*ne = scheduledEvent{at: ev.at, owner: ev.owner, cnt: ev.cnt, call: call, tag: tag, index: i}
		c.events = append(c.events, ne)
	}
	return c, nil
}

// release returns a fired event slot to the free list.
func (e *Engine) release(ev *scheduledEvent) {
	ev.call, ev.tag = nil, nil
	e.free = append(e.free, ev)
}

// Step fires the next event, advancing the clock to its cycle. It returns
// false if the queue is empty.
//
//swex:hotpath
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	e.fired++
	call := ev.call
	e.release(ev)
	call.Fire()
	if e.Observer != nil {
		e.Observer(e.now, len(e.events))
	}
	return true
}

// Run fires events until the queue drains or the clock passes limit.
// A limit of zero means no limit. It returns the cycle at which the engine
// stopped and whether the queue drained (as opposed to hitting the limit).
//
//swex:hotpath
func (e *Engine) Run(limit Cycle) (Cycle, bool) {
	for len(e.events) > 0 {
		if limit != 0 && e.events[0].at > limit {
			e.now = limit
			return e.now, false
		}
		e.Step()
	}
	return e.now, true
}

// RunUntil fires events while cond returns false, stopping as soon as cond
// is true (checked after each event) or the queue drains or the hard cycle
// limit is exceeded. It returns true if cond was satisfied.
func (e *Engine) RunUntil(cond func() bool, limit Cycle) bool {
	if cond() {
		return true
	}
	for len(e.events) > 0 {
		if limit != 0 && e.events[0].at > limit {
			e.now = limit
			return false
		}
		e.Step()
		if cond() {
			return true
		}
	}
	return false
}
