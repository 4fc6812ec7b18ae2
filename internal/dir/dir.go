// Package dir implements the hardware coherence directory of a node's
// CMMU: a small set of explicit pointers per memory block, the one-bit
// local pointer, the acknowledgment counter, and the per-block state the
// hardware protocol engine drives.
//
// The pointer array is the costly resource the whole paper is about.
// Alewife implements between zero and five pointers per block in hardware
// and extends the directory in software when they are exhausted
// (Dir_nH_X S_NB); the full-map protocol is the same structure with
// capacity equal to the machine size.
package dir

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"swex/internal/mem"
)

// MaxNodes bounds the pointer bitset. 1024 covers the largest machine
// any exhibit simulates: the paper stops at TSP on 256 nodes (Figure 5)
// and the extrapolation study continues to 1024. machine.Config.Validate
// rejects larger machines rather than letting node IDs index past the
// bitset.
const MaxNodes = 1024

// PointerSet is a capacity-limited set of node pointers. The limited
// directory stores it as explicit pointer registers; we represent it as a
// bitset plus a count, which models the same information content.
type PointerSet struct {
	bits [MaxNodes / 64]uint64
	n    int
	cap  int
}

// NewPointerSet returns an empty set holding at most capacity pointers.
func NewPointerSet(capacity int) PointerSet {
	if capacity < 0 || capacity > MaxNodes {
		panic(fmt.Sprintf("dir: pointer capacity %d out of range", capacity))
	}
	return PointerSet{cap: capacity}
}

// Cap reports the pointer capacity.
func (p *PointerSet) Cap() int { return p.cap }

// Count reports how many pointers are in use.
func (p *PointerSet) Count() int { return p.n }

// Has reports whether node id has a pointer.
func (p *PointerSet) Has(id mem.NodeID) bool {
	return p.bits[id/64]&(1<<(uint(id)%64)) != 0
}

// Add records a pointer to node id. It returns false — an overflow — when
// the set is full and id is not already present. Adding a present id is a
// no-op that succeeds.
func (p *PointerSet) Add(id mem.NodeID) bool {
	if p.Has(id) {
		return true
	}
	if p.n >= p.cap {
		return false
	}
	p.bits[id/64] |= 1 << (uint(id) % 64)
	p.n++
	return true
}

// Remove drops the pointer to node id, reporting whether it was present.
func (p *PointerSet) Remove(id mem.NodeID) bool {
	if !p.Has(id) {
		return false
	}
	p.bits[id/64] &^= 1 << (uint(id) % 64)
	p.n--
	return true
}

// Clear empties the set, keeping its capacity.
func (p *PointerSet) Clear() {
	p.bits = [MaxNodes / 64]uint64{}
	p.n = 0
}

// ForEach calls fn for every pointer in ascending node order. The
// deterministic order matters: invalidation transmission order is part of
// the simulation's reproducibility contract.
func (p *PointerSet) ForEach(fn func(mem.NodeID)) {
	for w, word := range p.bits {
		for ; word != 0; word &= word - 1 {
			fn(mem.NodeID(w*64 + bits.TrailingZeros64(word)))
		}
	}
}

// Drain empties the set and returns the pointers it held, in ascending
// order. This is the hardware half of the read-overflow handler: the
// software "empt[ies] all of the hardware pointers into the software
// structure" (paper Section 2.2).
func (p *PointerSet) Drain() []mem.NodeID {
	out := make([]mem.NodeID, 0, p.n)
	p.ForEach(func(id mem.NodeID) { out = append(out, id) })
	p.Clear()
	return out
}

// AppendTo appends the pointers to dst in ascending order and returns the
// extended slice, without modifying the set.
func (p *PointerSet) AppendTo(dst []mem.NodeID) []mem.NodeID {
	for w, word := range p.bits {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, mem.NodeID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// List returns the pointers in ascending order without modifying the set.
func (p *PointerSet) List() []mem.NodeID {
	out := make([]mem.NodeID, 0, p.n)
	p.ForEach(func(id mem.NodeID) { out = append(out, id) })
	return out
}

// State is the hardware directory state of a block at its home node.
type State int

const (
	// Uncached: no remote copies tracked (the local bit may still be set).
	Uncached State = iota
	// Shared: read-only copies at the nodes in the pointer set.
	Shared
	// Exclusive: one dirty owner holds the block.
	Exclusive
	// AckWait: invalidations are outstanding and the hardware is counting
	// acknowledgments; requests receive busy messages until the count
	// drains (the window during which the paper's hardware "transmit[s]
	// busy messages to requesting nodes, eliminating the livelock
	// problem").
	AckWait
	// Recall: the home has asked an exclusive owner to give up the block
	// (servicing a read or write to dirty data) and awaits the UPDATE.
	Recall
	// SWait: the transaction is under software control — the extension
	// software owns the block until it releases it (used while handlers
	// collect acknowledgments in software, and by the software-only
	// directory while it manipulates a block).
	SWait
)

func (s State) String() string {
	switch s {
	case Uncached:
		return "Uncached"
	case Shared:
		return "Shared"
	case Exclusive:
		return "Exclusive"
	case AckWait:
		return "AckWait"
	case Recall:
		return "Recall"
	case SWait:
		return "SWait"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Entry is the per-block hardware directory entry.
type Entry struct {
	State State
	Ptrs  PointerSet
	// LocalBit is Alewife's special one-bit pointer for the home node:
	// it lets the home cache the block without consuming (or
	// overflowing) a hardware pointer (paper Section 3.1).
	LocalBit bool
	// Owner is the dirty owner while State is Exclusive or Recall.
	Owner mem.NodeID
	// AckCount is the hardware acknowledgment counter used in AckWait.
	AckCount int
	// Req and ReqWrite record the request being serviced during
	// AckWait/Recall, so the hardware can reply when the transaction
	// completes.
	Req      mem.NodeID
	ReqWrite bool
	// Epoch tags the current invalidation transaction. Invalidations
	// carry it and acknowledgments echo it, letting the home discard
	// acknowledgments that belong to a transaction a crossing writeback
	// already completed.
	Epoch uint32
	// SwExt marks that the software holds an extended sharer list for
	// this block (the directory has overflowed at least once and not yet
	// been reclaimed).
	SwExt bool
	// SwCount mirrors the software sharer-list size for statistics; the
	// hardware never reads it.
	SwCount int
	// RemoteBit is the software-only directory's one extra bit per
	// block: set once any remote node has accessed the block, after
	// which every access traps (paper Section 2.3).
	RemoteBit bool
	// BroadcastBit marks "more copies than pointers exist" for the
	// Dir_1H_1S_B broadcast protocol.
	BroadcastBit bool
	// MaxSharers tracks the largest simultaneous worker set this block
	// ever had, for the Figure 6 histogram.
	MaxSharers int
}

// Sharers reports the current simultaneous worker-set size recorded for
// the block: hardware pointers, software-extended pointers, the local bit,
// and a dirty owner.
func (e *Entry) Sharers() int {
	n := e.Ptrs.Count() + e.SwCount
	if e.LocalBit {
		n++
	}
	if e.State == Exclusive || e.State == Recall {
		n++
	}
	return n
}

// NoteSharers refreshes MaxSharers from the current state.
func (e *Entry) NoteSharers() {
	if s := e.Sharers(); s > e.MaxSharers {
		e.MaxSharers = s
	}
}

// Directory is one node's collection of hardware entries for the blocks it
// is home to. Entries are created on first reference.
type Directory struct {
	caps    int
	entries map[mem.Block]*Entry
	// keys and copies are CloneInto's storage: the sorted block list and
	// the copied entries the map points into.
	keys   []mem.Block
	copies []Entry
}

// New creates a directory whose entries hold caps hardware pointers.
func New(caps int) *Directory {
	return &Directory{caps: caps, entries: make(map[mem.Block]*Entry)}
}

// CloneInto returns an independent copy of the directory and its
// entries, reusing dst's storage when dst is not nil: dst's entries are
// overwritten, and the entry copies it made earlier are reused.
func (d *Directory) CloneInto(dst *Directory) *Directory {
	if dst == nil {
		dst = New(d.caps)
	}
	dst.caps = d.caps
	if len(dst.entries) > 0 {
		clear(dst.entries)
	}
	keys := dst.keys[:0]
	for b := range d.entries {
		keys = append(keys, b)
	}
	slices.Sort(keys)
	dst.keys = keys
	if cap(dst.copies) < len(keys) {
		dst.copies = make([]Entry, len(keys))
	}
	dst.copies = dst.copies[:len(keys)]
	for i, b := range keys {
		dst.copies[i] = *d.entries[b]
		dst.entries[b] = &dst.copies[i]
	}
	return dst
}

// PointerCap reports the per-entry hardware pointer capacity.
func (d *Directory) PointerCap() int { return d.caps }

// Entry returns the entry for block b, creating it Uncached if absent.
//
//swex:hotpath
func (d *Directory) Entry(b mem.Block) *Entry {
	return d.EntryWithCap(b, d.caps)
}

// EntryWithCap returns the entry for block b, creating it with the given
// pointer capacity if absent (per-block protocol reconfiguration).
func (d *Directory) EntryWithCap(b mem.Block, caps int) *Entry {
	e, ok := d.entries[b]
	if !ok {
		e = &Entry{Ptrs: NewPointerSet(caps)}
		d.entries[b] = e
	}
	return e
}

// Peek returns the entry for b only if it exists.
func (d *Directory) Peek(b mem.Block) (*Entry, bool) {
	e, ok := d.entries[b]
	return e, ok
}

// Len reports how many blocks have entries.
func (d *Directory) Len() int { return len(d.entries) }

// ForEach visits all entries in ascending block order (deterministic).
func (d *Directory) ForEach(fn func(mem.Block, *Entry)) {
	blocks := make([]mem.Block, 0, len(d.entries))
	for b := range d.entries {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, b := range blocks {
		fn(b, d.entries[b])
	}
}
