// Package ext implements the protocol extension software: the directory
// structures, memory management, and handler logic that run on a node's
// processor when the hardware directory traps.
//
// Two implementations mirror the paper's Section 4. The flexible coherence
// interface (the C version) pays for generality: protocol-specific
// dispatch, saved state for function calls, hash-table administration, and
// support for non-Alewife protocols all cost cycles. The hand-tuned
// assembly version specializes directory allocation and lookup, roughly
// halving handler latency, but supports only Dir_nH_5S_NB.
//
// The data structures here are real — a hash table of extended directory
// entries and a free-list allocator — and the cost model charges cycles
// for the activities the handlers actually perform, so the Table 1 and
// Table 2 measurements emerge from executed code rather than from fixed
// constants.
package ext

import (
	"math/bits"

	"swex/internal/mem"
)

// entry is one software-extended directory entry. Small worker sets live
// in the inline array (the paper's memory-usage optimization, Section 5:
// "attempts to reduce the size of the software-extended directory when
// handling small worker sets"); larger sets spill to a bitset.
type entry struct {
	block  mem.Block
	inline [inlineSharers]mem.NodeID
	n      int
	// spill is the bitset of a wide entry. It is allocated on the first
	// spill and kept, cleared, when the free list recycles the entry, so
	// a recycled entry spills again without allocating; wide, not the
	// storage, says whether the sharers live there.
	spill []uint64
	wide  bool
	next  *entry // hash chain / free list link
}

// inlineSharers is the inline capacity before an entry spills; worker sets
// of four or fewer avoid the spill allocation, which is why the
// H1,LACK/H1,ACK/H0 protocols run faster on worker sets of at most four.
const inlineSharers = 4

// add records a sharer, reporting whether it was new.
func (e *entry) add(id mem.NodeID, maxNodes int) bool {
	if e.has(id) {
		return false
	}
	if !e.wide && e.n < inlineSharers {
		e.inline[e.n] = id
		e.n++
		return true
	}
	if !e.wide {
		if e.spill == nil {
			e.spill = make([]uint64, (maxNodes+63)/64)
		}
		for _, s := range e.inline[:e.n] {
			e.spill[s/64] |= 1 << (uint(s) % 64)
		}
		e.wide = true
	}
	e.spill[id/64] |= 1 << (uint(id) % 64)
	e.n++
	return true
}

func (e *entry) has(id mem.NodeID) bool {
	if e.wide {
		return e.spill[id/64]&(1<<(uint(id)%64)) != 0
	}
	for _, s := range e.inline[:e.n] {
		if s == id {
			return true
		}
	}
	return false
}

// sharersInto writes the recorded nodes in ascending order into buf, which
// must hold at least e.n entries, and returns buf[:e.n].
func (e *entry) sharersInto(buf []mem.NodeID) []mem.NodeID {
	out := buf[:e.n]
	if !e.wide {
		// Inline entries are in insertion order; insertion-sort the
		// short list as it is copied.
		for i, id := range e.inline[:e.n] {
			j := i
			for ; j > 0 && out[j-1] > id; j-- {
				out[j] = out[j-1]
			}
			out[j] = id
		}
		return out
	}
	k := 0
	for w, word := range e.spill {
		for ; word != 0; word &= word - 1 {
			out[k] = mem.NodeID(w*64 + bits.TrailingZeros64(word))
			k++
		}
	}
	return out
}

// spilled reports whether the entry outgrew its inline storage.
func (e *entry) spilled() bool { return e.wide }

// reset clears an entry for reuse by the free list, keeping its spill
// storage.
func (e *entry) reset() {
	if e.wide {
		clear(e.spill)
	}
	e.block = 0
	e.n = 0
	e.wide = false
	e.next = nil
}

// freeList recycles extended directory entries, mirroring the flexible
// interface's "free-listing memory manager" and the assembly version's
// boot-time pre-initialized free list.
type freeList struct {
	head *entry
	// Allocs and Reuses count fresh allocations versus recycled entries;
	// the cost model charges them differently.
	Allocs, Reuses uint64
}

// get returns a clean entry, recycling if possible.
func (f *freeList) get() *entry {
	if f.head != nil {
		e := f.head
		f.head = e.next
		e.next = nil
		f.Reuses++
		return e
	}
	f.Allocs++
	return &entry{}
}

// put recycles an entry.
func (f *freeList) put(e *entry) {
	e.reset()
	e.next = f.head
	f.head = e
}
