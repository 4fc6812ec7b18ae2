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
// Two keying disciplines exist:
//
//   - Unkeyed (At, After, AtCall, ...): the key is a per-engine sequence
//     number assigned at scheduling time, so same-cycle events fire in
//     the order they were scheduled. Standalone engine users (the model
//     checker, tests) use this form.
//   - Owned (OwnedAt, OwnedAtCall, ... after SetStreams): the key is
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
	"container/heap"
	"fmt"
	"sort"
)

// Cycle is a point in simulated time, measured in processor clock cycles.
// Alewife's clock runs at 33 MHz, so 33e6 cycles correspond to one second
// of simulated execution.
type Cycle uint64

// CyclesPerSecond is the Alewife node clock rate (33 MHz Sparcle).
const CyclesPerSecond = 33_000_000

// Seconds converts a cycle count to simulated seconds at the Alewife clock.
func (c Cycle) Seconds() float64 { return float64(c) / CyclesPerSecond }

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Caller is the allocation-free alternative to Event: a preallocated
// receiver whose Fire method runs when the event's cycle arrives. A hot
// caller keeps one Caller per logical operation (or a free list of them)
// and schedules it with AtCall; a pointer stores into the event without
// the closure allocation an Event capture costs, and without the boxing
// an interface conversion of a non-pointer would cost.
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
	fire  Event  // closure form; nil when call is set
	call  Caller // receiver form; nil when fire is set
	tag   any    // optional inspection tag (see AtTagged)
	index int    // heap index; -1 once popped or cancelled
	gen   uint64 // bumped on every release, invalidating stale EventIDs
}

// EventID identifies a scheduled event so it can be cancelled. Events are
// pooled: the generation captured at scheduling time keeps a stale ID
// (held across the event's firing) from cancelling the slot's next tenant.
type EventID struct {
	ev  *scheduledEvent
	gen uint64
}

type eventHeap []*scheduledEvent

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].owner != h[j].owner {
		return h[i].owner < h[j].owner
	}
	return h[i].cnt < h[j].cnt
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*scheduledEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
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
	// the tracing subsystem's engine counters; it must not schedule or
	// cancel events. Nil (the default) costs one branch per Step.
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

// At schedules fn to run at the absolute cycle at. Scheduling in the past
// panics: it indicates a protocol bug, and silently reordering time would
// destroy the determinism guarantee.
func (e *Engine) At(at Cycle, fn Event) EventID {
	return e.AtTagged(at, nil, fn)
}

// AtTagged schedules fn like At and attaches an inspection tag to the
// pending event. Tags never affect execution; they exist so external
// observers (the model checker's state-fingerprint layer) can enumerate
// what is queued without being able to look inside the closures.
func (e *Engine) AtTagged(at Cycle, tag any, fn Event) EventID {
	ev := e.scheduleUnkeyed(at, tag)
	ev.fire = fn
	return EventID{ev, ev.gen}
}

// AtCall schedules a preallocated Caller to fire at the absolute cycle
// at, with an inspection tag. It is the allocation-free scheduling path:
// the event slot comes from the engine's free list and the receiver is
// caller-owned, so steady-state scheduling allocates nothing.
func (e *Engine) AtCall(at Cycle, tag any, c Caller) EventID {
	ev := e.scheduleUnkeyed(at, tag)
	ev.call = c
	return EventID{ev, ev.gen}
}

// AfterCall schedules a Caller to fire delay cycles from now (see AtCall).
func (e *Engine) AfterCall(delay Cycle, tag any, c Caller) EventID {
	return e.AtCall(e.now+delay, tag, c)
}

// scheduleUnkeyed acquires an event slot keyed by the engine-global
// sequence: the fallback discipline for engine users that never install
// key streams (see the package comment).
func (e *Engine) scheduleUnkeyed(at Cycle, tag any) *scheduledEvent {
	return e.schedule(at, unkeyedOwner, e.seq, tag)
}

// schedule acquires an event slot (reusing a released one when possible)
// and enqueues it under the given canonical key. Scheduling in the past
// panics: it indicates a protocol bug, and silently reordering time would
// destroy determinism.
func (e *Engine) schedule(at Cycle, owner int32, cnt uint64, tag any) *scheduledEvent {
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
	ev.at, ev.owner, ev.cnt, ev.tag = at, owner, cnt, tag
	e.seq++
	heap.Push(&e.events, ev)
	return ev
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

// OwnedAt schedules fn at the absolute cycle at with a canonical
// (owner, cnt) key drawn from owner's stream (see the package comment).
//
//swex:hotpath
func (e *Engine) OwnedAt(owner int, at Cycle, tag any, fn Event) EventID {
	o, c := e.ownedKey(owner)
	ev := e.schedule(at, o, c, tag)
	ev.fire = fn
	return EventID{ev, ev.gen}
}

// OwnedAfter schedules fn delay cycles from now with a canonical key (see
// OwnedAt).
//
//swex:hotpath
func (e *Engine) OwnedAfter(owner int, delay Cycle, tag any, fn Event) EventID {
	return e.OwnedAt(owner, e.now+delay, tag, fn)
}

// OwnedAtCall schedules a preallocated Caller at the absolute cycle at
// with a canonical key (see OwnedAt and AtCall).
//
//swex:hotpath
func (e *Engine) OwnedAtCall(owner int, at Cycle, tag any, c Caller) EventID {
	o, cnt := e.ownedKey(owner)
	ev := e.schedule(at, o, cnt, tag)
	ev.call = c
	return EventID{ev, ev.gen}
}

// release returns a fired event slot to the free list, invalidating any
// EventID still holding it.
func (e *Engine) release(ev *scheduledEvent) {
	ev.gen++
	ev.fire, ev.call, ev.tag = nil, nil, nil
	e.free = append(e.free, ev)
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) EventID {
	return e.At(e.now+delay, fn)
}

// AfterTagged schedules fn to run delay cycles from now with a tag.
func (e *Engine) AfterTagged(delay Cycle, tag any, fn Event) EventID {
	return e.AtTagged(e.now+delay, tag, fn)
}

// TaggedEvent describes one pending event for inspection: its firing cycle
// and the tag it was scheduled with (nil for untagged events).
type TaggedEvent struct {
	// At is the cycle the event will fire.
	At Cycle
	// Tag is the caller-supplied inspection tag, nil if untagged.
	Tag any
}

// PendingTagged returns the pending events in firing order (cycle, then
// event key). The slice is a snapshot: mutating it does not
// affect the queue. The order is exactly the order Step would fire them if
// nothing else were scheduled, which is what makes it usable as part of a
// canonical machine-state fingerprint.
func (e *Engine) PendingTagged() []TaggedEvent {
	evs := make([]*scheduledEvent, len(e.events))
	copy(evs, e.events)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		if evs[i].owner != evs[j].owner {
			return evs[i].owner < evs[j].owner
		}
		return evs[i].cnt < evs[j].cnt
	})
	out := make([]TaggedEvent, len(evs))
	for i, ev := range evs {
		out[i] = TaggedEvent{At: ev.at, Tag: ev.tag}
	}
	return out
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// (or was already cancelled) is a no-op and returns false; the generation
// check makes this safe even after the pooled slot has been reused.
func (e *Engine) Cancel(id EventID) bool {
	if id.ev == nil || id.ev.gen != id.gen || id.ev.index < 0 {
		return false
	}
	heap.Remove(&e.events, id.ev.index)
	id.ev.index = -1
	e.release(id.ev)
	return true
}

// Step fires the next event, advancing the clock to its cycle. It returns
// false if the queue is empty.
//
//swex:hotpath
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*scheduledEvent)
	e.now = ev.at
	e.fired++
	fire, call := ev.fire, ev.call
	e.release(ev)
	if call != nil {
		call.Fire()
	} else {
		fire()
	}
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
