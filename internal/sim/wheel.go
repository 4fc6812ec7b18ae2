package sim

import "math/bits"

// wheelSpan is the number of one-cycle buckets in the timing wheel: the
// wheel holds the events due in [now, now+wheelSpan). It covers the
// machine's common delays, from one-cycle handoffs to the Compute replies
// of a few hundred cycles (DESIGN.md §8, "Event queue"); later events wait
// in the far heap. It must be a multiple of 64, one bitmap word per 64
// buckets.
const (
	wheelSpan  = 1024
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// event is one slot of the queue's slab. A pending event sits either in a
// wheel bucket's list, linked through next, or in the far heap; a free
// slot is linked into the free list through next. Index 0 is never used,
// so a zero next ends a list.
type event struct {
	at    Cycle
	cnt   uint64 // owner-stream position, or engine sequence when unkeyed
	owner int32  // key owner (node), or unkeyedOwner
	next  int32  // next slot in the bucket or free list; 0 ends it
	call  Caller
	tag   any // optional inspection tag
}

// queue is an engine's pending-event storage: a slab of event slots, the
// wheel's bucket lists over it, and the far heap. The engine holds it by
// value, so the fields every event touches share the engine's cache
// lines; only the bucket arrays live apart, in lists.
//
// A pending event is never earlier than the clock, so the wheel's buckets
// hold the cycles [now, now+wheelSpan) and no bucket ever holds two
// cycles. Each bucket's list is sorted by (owner, cnt), and occ marks the
// non-empty buckets; a bucket's head and tail are meaningful only while
// its bit is set. Events at or beyond the span when scheduled go to far,
// a binary min-heap of slab indices under the full (at, owner, cnt) key,
// and stay there until they fire.
type queue struct {
	occ   [wheelWords]uint64
	slots []event
	far   []int32 // min-heap of slot indices
	free  int32   // first free slot, 0 when none
	lists *buckets
}

// buckets holds the wheel's list ends.
type buckets struct {
	head, tail [wheelSpan]int32
}

// newQueue returns an empty queue.
func newQueue() queue {
	return queue{slots: make([]event, 1, 64), lists: new(buckets)}
}

// reset drops every pending event without firing it and empties the
// queue, keeping its storage. Only the occupied buckets' slots and the
// far heap are cleared: every other slot is free and already holds no
// receiver, so resetting costs in proportion to what was pending.
func (q *queue) reset() {
	for w, word := range q.occ {
		for ; word != 0; word &= word - 1 {
			for i := q.lists.head[w<<6+bits.TrailingZeros64(word)]; i != 0; i = q.slots[i].next {
				q.slots[i].call, q.slots[i].tag = nil, nil
			}
		}
	}
	for _, i := range q.far {
		q.slots[i].call, q.slots[i].tag = nil, nil
	}
	q.occ = [wheelWords]uint64{}
	q.slots, q.far, q.free = q.slots[:1], q.far[:0], 0
}

// before orders two pending slots by the engine's total event order:
// cycle, then key owner, then key counter. Keys are unique, so no two
// pending events compare equal.
func (q *queue) before(i, j int32) bool {
	a, b := &q.slots[i], &q.slots[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.cnt < b.cnt
}

// alloc returns a free slot holding the given event.
func (q *queue) alloc(at Cycle, owner int32, cnt uint64, tag any, c Caller) int32 {
	i := q.free
	if i != 0 {
		q.free = q.slots[i].next
	} else {
		i = int32(len(q.slots))
		q.slots = append(q.slots, event{})
	}
	q.slots[i] = event{at: at, cnt: cnt, owner: owner, call: c, tag: tag}
	return i
}

// insert links slot i into bucket b in (owner, cnt) order. Events mostly
// arrive in key order, so the tail is checked first.
func (q *queue) insert(b int, i int32) {
	w, bit := b>>6, uint64(1)<<(b&63)
	if q.occ[w]&bit == 0 {
		q.occ[w] |= bit
		q.lists.head[b], q.lists.tail[b] = i, i
		return
	}
	if t := q.lists.tail[b]; q.before(t, i) {
		q.slots[t].next = i
		q.lists.tail[b] = i
		return
	}
	p := q.lists.head[b]
	if q.before(i, p) {
		q.slots[i].next = p
		q.lists.head[b] = i
		return
	}
	// i falls strictly between head and tail, so the walk stops before
	// the end of the list.
	for n := q.slots[p].next; q.before(n, i); n = q.slots[p].next {
		p = n
	}
	q.slots[i].next = q.slots[p].next
	q.slots[p].next = i
}

// first returns the first non-empty bucket at or after from in circular
// order, which holds the earliest cycle in the wheel; the wheel must not
// be empty.
func (q *queue) first(from int) int {
	w := from >> 6
	if word := q.occ[w] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	// The last pass returns to word w, whose bits at and above from are
	// known to be clear.
	for k := 1; k <= wheelWords; k++ {
		w = (w + 1) & (wheelWords - 1)
		if word := q.occ[w]; word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	panic("sim: empty wheel")
}

// pushFar adds slot i to the far heap.
func (q *queue) pushFar(i int32) {
	q.far = append(q.far, i)
	h := q.far
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !q.before(i, h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = i
}

// popFar removes the far heap's least slot.
func (q *queue) popFar() {
	h := q.far
	n := len(h) - 1
	i := h[n]
	q.far = h[:n]
	h = h[:n]
	if n == 0 {
		return
	}
	j := 0
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.before(h[r], h[c]) {
			c = r
		}
		if !q.before(h[c], i) {
			break
		}
		h[j] = h[c]
		j = c
	}
	h[j] = i
}

// sortFar sorts the far heap in place by insertion sort. A sorted array
// is a valid min-heap, so the heap stays usable, and a heap already
// sorted by an earlier call costs one pass.
func (q *queue) sortFar() {
	h := q.far
	for k := 1; k < len(h); k++ {
		i := h[k]
		j := k
		for ; j > 0 && q.before(i, h[j-1]); j-- {
			h[j] = h[j-1]
		}
		h[j] = i
	}
}
