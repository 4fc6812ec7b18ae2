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
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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
// is home to. Entries are created on first reference and live until
// Reset.
//
// Every message the home processes looks its block up here, so the
// directory is its own open-addressed hash table rather than a Go map:
// a multiplicative hash of the block, linear probing at a load of at
// most three quarters, and no deletion (entries are only dropped all at
// once, by Reset). A cell points at its entry, which never moves, so an
// *Entry stays valid until Reset; Reset keeps the entries for reuse. A
// home's entries number in the tens to hundreds, far fewer than the
// blocks of its segment, so the table is sized by entries, not by the
// segment.
type Directory struct {
	caps  int
	slots []slot   // open-addressed table; len is zero or a power of two
	shift uint     // 64 - log2(len(slots)): the hash keeps the top bits
	n     int      // entries in use
	free  []*Entry // entries released by Reset, reused before allocating
}

// slot is one table cell: a block and its entry; a nil entry marks an
// empty cell.
type slot struct {
	b mem.Block
	e *Entry
}

// minSlots is the smallest table.
const minSlots = 8

// New creates a directory whose entries hold caps hardware pointers.
func New(caps int) *Directory {
	return &Directory{caps: caps}
}

// Reset empties the directory, keeping its storage, and gives the
// entries it creates from now on caps hardware pointers: it then behaves
// exactly as New(caps). CloneInto resets its destination this way, and
// a home controller's directory is reset with its machine
// (machine.Machine.Reset).
func (d *Directory) Reset(caps int) {
	d.caps = caps
	if d.n == 0 {
		return
	}
	for _, s := range d.slots {
		if s.e != nil {
			d.free = append(d.free, s.e)
		}
	}
	clear(d.slots)
	d.n = 0
}

// CloneInto returns an independent copy of the directory and its
// entries, reusing dst's storage when dst is not nil. The copy has the
// same table layout, so it is a cell-by-cell copy, not a rehash.
func (d *Directory) CloneInto(dst *Directory) *Directory {
	if dst == nil {
		dst = New(d.caps)
	}
	dst.Reset(d.caps)
	if cap(dst.slots) < len(d.slots) {
		dst.slots = make([]slot, len(d.slots))
	}
	dst.slots = dst.slots[:len(d.slots)]
	for i, s := range d.slots {
		if s.e != nil {
			e := dst.fresh()
			*e = *s.e
			dst.slots[i] = slot{b: s.b, e: e}
		}
	}
	dst.shift, dst.n = d.shift, d.n
	return dst
}

// Entry returns the entry for block b, creating it Uncached if absent.
func (d *Directory) Entry(b mem.Block) *Entry {
	return d.EntryWithCap(b, d.caps)
}

// home returns b's first table cell.
func (d *Directory) home(b mem.Block) int {
	return int(uint64(b) * 0x9E3779B97F4A7C15 >> d.shift)
}

// EntryWithCap returns the entry for block b, creating it with the given
// pointer capacity if absent (per-block protocol reconfiguration).
func (d *Directory) EntryWithCap(b mem.Block, caps int) *Entry {
	if e, ok := d.Peek(b); ok {
		return e
	}
	return d.insert(b, caps)
}

// insert creates b's entry, which must be absent, first doubling the
// table when one more entry would load it past three quarters.
func (d *Directory) insert(b mem.Block, caps int) *Entry {
	if 4*(d.n+1) > 3*len(d.slots) {
		d.rehash(max(minSlots, 2*len(d.slots)))
	}
	e := d.fresh()
	*e = Entry{Ptrs: NewPointerSet(caps)}
	d.place(slot{b: b, e: e})
	d.n++
	return e
}

// fresh takes an entry for reuse from the ones Reset released, or
// allocates one. The caller overwrites it.
func (d *Directory) fresh() *Entry {
	if k := len(d.free); k > 0 {
		e := d.free[k-1]
		d.free = d.free[:k-1]
		return e
	}
	return new(Entry)
}

// place puts s in the first free cell of its probe sequence.
func (d *Directory) place(s slot) {
	mask := len(d.slots) - 1
	i := d.home(s.b)
	for d.slots[i].e != nil {
		i = (i + 1) & mask
	}
	d.slots[i] = s
}

// rehash moves the table's cells into a new table of size cells, a power
// of two. An empty table is cleared in place when its storage holds size
// cells (CloneInto may leave it shorter than its capacity).
func (d *Directory) rehash(size int) {
	old := d.slots
	if d.n == 0 && cap(old) >= size {
		old, d.slots = nil, old[:size]
		clear(d.slots)
	} else {
		d.slots = make([]slot, size)
	}
	d.shift = uint(65 - bits.Len(uint(size)))
	for _, s := range old {
		if s.e != nil {
			d.place(s)
		}
	}
}

// Peek returns the entry for b only if it exists.
func (d *Directory) Peek(b mem.Block) (*Entry, bool) {
	if d.n == 0 {
		return nil, false
	}
	mask := len(d.slots) - 1
	for i := d.home(b); d.slots[i].e != nil; i = (i + 1) & mask {
		if d.slots[i].b == b {
			return d.slots[i].e, true
		}
	}
	return nil, false
}

// Len reports how many blocks have entries.
func (d *Directory) Len() int { return d.n }

// ForEach visits all entries in ascending block order (deterministic).
func (d *Directory) ForEach(fn func(mem.Block, *Entry)) {
	used := make([]slot, 0, d.n)
	for _, s := range d.slots {
		if s.e != nil {
			used = append(used, s)
		}
	}
	slices.SortFunc(used, func(x, y slot) int { return cmp.Compare(x.b, y.b) })
	for _, s := range used {
		fn(s.b, s.e)
	}
}
