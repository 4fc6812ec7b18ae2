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
//
// The queue is a timing wheel: wheelSpan one-cycle buckets hold the
// events due in [now, now+wheelSpan), each bucket a list sorted by
// (owner, cnt) through a slab of event slots, with an occupancy bitmap
// to find the first non-empty one. Events scheduled further out wait in
// a small binary heap, the far heap. No pending event is earlier than the
// clock, so a bucket never holds two cycles and the first non-empty
// bucket's head is the wheel's least event; the engine fires the lesser
// of it and the far heap's top under the full (cycle, owner, cnt) key.
// That is exactly the least pending event, so the firing order is the
// total order above, whichever structure holds an event.
package sim

import "fmt"

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

// Engine is a discrete-event scheduler with deterministic tie-breaking.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64
	n     int // pending events
	q     queue

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
	return &Engine{q: newQueue()}
}

// Reset returns the engine in place to what NewEngine builds: cycle zero,
// no pending events, no key streams, no Observer, a zero Fired count. It
// keeps the queue's storage. Pending events are dropped without firing,
// and only the occupied buckets and the far heap are visited, so a reset
// costs in proportion to what was pending.
func (e *Engine) Reset() {
	e.q.reset()
	e.now, e.seq, e.fired, e.n = 0, 0, 0, 0
	e.streams, e.Observer = nil, nil
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have executed since construction.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.n }

// AtCall schedules a preallocated Caller to fire at the absolute cycle
// at, with an inspection tag. Tags never affect execution; they exist so
// external observers (the model checker's state-fingerprint layer) can
// enumerate what is queued. The event slot comes from the engine's slab
// and the receiver is caller-owned, so steady-state scheduling allocates
// nothing. Scheduling in the past panics: it indicates a protocol bug,
// and silently reordering time would destroy the determinism guarantee.
func (e *Engine) AtCall(at Cycle, tag any, c Caller) {
	e.schedule(at, unkeyedOwner, e.seq, tag, c)
}

// AfterCall schedules a Caller to fire delay cycles from now (see AtCall).
func (e *Engine) AfterCall(delay Cycle, tag any, c Caller) {
	e.AtCall(e.now+delay, tag, c)
}

// schedule takes a slab slot for the event and enqueues it under the
// given canonical key: in the wheel bucket of its cycle when that lies
// within the span, in the far heap otherwise.
func (e *Engine) schedule(at Cycle, owner int32, cnt uint64, tag any, c Caller) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, now %d", at, e.now))
	}
	q := &e.q
	i := q.alloc(at, owner, cnt, tag, c)
	if at-e.now < wheelSpan {
		q.insert(int(at)&wheelMask, i)
	} else {
		q.pushFar(i)
	}
	e.seq++
	e.n++
}

// SetStreams installs the per-owner key counter streams, switching the
// Owned scheduling calls from the unkeyed fallback to canonical
// (owner, cnt) keys. The machine installs one slice, indexed by node.
func (e *Engine) SetStreams(streams []uint64) { e.streams = streams }

// ownedKey resolves the key for an owned scheduling call: the owner's
// next stream position, or the unkeyed fallback when no streams are
// installed (standalone engine users never install streams, and their
// owned calls then behave exactly like the unkeyed forms).
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
func (e *Engine) OwnedAtCall(owner int, at Cycle, tag any, c Caller) {
	o, cnt := e.ownedKey(owner)
	e.schedule(at, o, cnt, tag, c)
}

// OwnedAfterCall schedules a Caller delay cycles from now with a
// canonical key (see OwnedAtCall).
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
}

// peek locates the least pending event: its slab slot, and the wheel
// bucket it heads or -1 when it is the far heap's top. The slot is 0
// when the queue is empty.
func (e *Engine) peek() (slot int32, bucket int) {
	q := &e.q
	far := q.far
	if e.n == len(far) {
		if len(far) == 0 {
			return 0, -1
		}
		return far[0], -1
	}
	b := q.first(int(e.now) & wheelMask)
	i := q.lists.head[b]
	if len(far) > 0 && q.before(far[0], i) {
		return far[0], -1
	}
	return i, b
}

// fire dequeues the event peek located, advances the clock to its cycle,
// frees its slot and runs it.
func (e *Engine) fire(i int32, b int) {
	q := &e.q
	ev := &q.slots[i]
	if b < 0 {
		q.popFar()
	} else if q.lists.head[b] = ev.next; ev.next == 0 {
		q.occ[b>>6] &^= 1 << (b & 63)
	}
	e.now = ev.at
	e.fired++
	e.n--
	call := ev.call
	ev.call, ev.tag = nil, nil
	ev.next, q.free = q.free, i
	call.Fire()
	if e.Observer != nil {
		e.Observer(e.now, e.n)
	}
}

// Next describes the event Step would fire next; ok is false when the
// queue is empty.
func (e *Engine) Next() (ev TaggedEvent, ok bool) {
	i, _ := e.peek()
	if i == 0 {
		return TaggedEvent{}, false
	}
	s := &e.q.slots[i]
	return TaggedEvent{At: s.at, Tag: s.tag}, true
}

// PendingTagged appends the pending events to dst in firing order (cycle,
// then event key) and returns the extended slice. The entries are a
// snapshot: mutating them does not affect the queue. The order is exactly
// the order Step would fire them if nothing else were scheduled, which is
// what makes it usable as part of a canonical machine-state fingerprint.
// Reusing dst across calls makes the inspection allocation-free.
//
// The wheel's buckets are walked in cycle order, each already sorted,
// and merged with the far heap, which is sorted in place first (a sorted
// array is still a valid heap).
func (e *Engine) PendingTagged(dst []TaggedEvent) []TaggedEvent {
	q := &e.q
	q.sortFar()
	far := q.far
	f := 0
	b := int(e.now) & wheelMask
	for left := e.n - len(far); left > 0; b = (b + 1) & wheelMask {
		b = q.first(b)
		for i := q.lists.head[b]; i != 0; i = q.slots[i].next {
			for ; f < len(far) && q.before(far[f], i); f++ {
				dst = append(dst, TaggedEvent{At: q.slots[far[f]].at, Tag: q.slots[far[f]].tag})
			}
			dst = append(dst, TaggedEvent{At: q.slots[i].at, Tag: q.slots[i].tag})
			left--
		}
	}
	for _, i := range far[f:] {
		dst = append(dst, TaggedEvent{At: q.slots[i].at, Tag: q.slots[i].tag})
	}
	return dst
}

// CloneInto returns an engine with this one's clock, key state and
// pending queue, each pending event's receiver and tag passed through
// remap, which maps them onto the copy's own objects. The copy's Fired
// count starts at zero and its Observer is unset. A non-nil dst lends
// its storage: its state is overwritten and its pending events are
// dropped without firing. The first error remap returns aborts the copy
// and is returned; dst then holds no usable state.
//
// The slab, the occupied buckets' links and the far heap are copied as
// they are, so the copy's queue has the original's exact shape; only
// the live slots are then remapped, in firing order within the wheel.
func (e *Engine) CloneInto(dst *Engine, remap func(c Caller, tag any) (Caller, any, error)) (*Engine, error) {
	c := dst
	if c == nil {
		c = &Engine{q: newQueue()}
	}
	src, q := &e.q, &c.q
	c.now, c.seq, c.fired, c.n, c.Observer = e.now, e.seq, 0, e.n, nil
	if e.streams == nil {
		c.streams = nil
	} else {
		c.streams = append(c.streams[:0], e.streams...)
	}
	if stale := len(q.slots); stale > len(src.slots) {
		// Slots past the copy's end would otherwise keep dst's dropped
		// receivers reachable.
		clear(q.slots[len(src.slots):stale])
	}
	q.slots = append(q.slots[:0], src.slots...)
	q.free = src.free
	q.far = append(q.far[:0], src.far...)
	q.occ = src.occ
	remapSlot := func(i int32) error {
		s := &q.slots[i]
		call, tag, err := remap(s.call, s.tag)
		s.call, s.tag = call, tag
		return err
	}
	b := int(e.now) & wheelMask
	for left := e.n - len(q.far); left > 0; b = (b + 1) & wheelMask {
		b = src.first(b)
		q.lists.head[b], q.lists.tail[b] = src.lists.head[b], src.lists.tail[b]
		for i := q.lists.head[b]; i != 0; i = q.slots[i].next {
			if err := remapSlot(i); err != nil {
				return nil, err
			}
			left--
		}
	}
	for _, i := range q.far {
		if err := remapSlot(i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Step fires the next event, advancing the clock to its cycle. It returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	i, b := e.peek()
	if i == 0 {
		return false
	}
	e.fire(i, b)
	return true
}

// Run fires events until the queue drains or the next event lies past
// limit, and then moves the clock up to limit. A limit of zero means no
// limit. It returns the cycle at which the engine stopped and whether
// the queue drained (as opposed to hitting the limit).
func (e *Engine) Run(limit Cycle) (Cycle, bool) {
	for {
		i, b := e.peek()
		if i == 0 {
			return e.now, true
		}
		if limit != 0 && e.q.slots[i].at > limit {
			e.stopAt(limit)
			return e.now, false
		}
		e.fire(i, b)
	}
}

// RunUntil fires events while cond returns false, stopping as soon as cond
// is true (checked after each event) or the queue drains or the next
// event lies past the hard cycle limit, which the clock then moves up
// to. It returns true if cond was satisfied.
func (e *Engine) RunUntil(cond func() bool, limit Cycle) bool {
	if cond() {
		return true
	}
	for {
		i, b := e.peek()
		if i == 0 {
			return false
		}
		if limit != 0 && e.q.slots[i].at > limit {
			e.stopAt(limit)
			return false
		}
		e.fire(i, b)
		if cond() {
			return true
		}
	}
}

// stopAt moves the clock to a run limit that the next event lies past.
// A limit already behind the clock leaves it where it is: the clock
// never runs backward, which the wheel's one-cycle-per-bucket layout
// relies on.
func (e *Engine) stopAt(limit Cycle) {
	if limit > e.now {
		e.now = limit
	}
}
