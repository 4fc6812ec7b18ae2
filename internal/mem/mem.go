// Package mem defines the shared address space of the machine: word
// addresses, cache blocks, the home-node mapping that implements
// location-independent addressing, and the per-node backing DRAM.
//
// Alewife distributes 4 Mbytes of globally shared memory to each node; an
// address names an object independent of residence, and hardware
// translates it to a home node (paper Section 1, "location-independent
// addressing"). Here each node owns a fixed-size segment of the word
// address space and the home of an address is its segment number.
package mem

import (
	"fmt"
	"maps"
)

// NodeID identifies a processing node. Nodes are numbered 0..P-1.
type NodeID int

// Addr is a word address in the globally shared space. The simulated word
// is 64 bits wide: one Addr names one uint64.
type Addr uint64

// WordsPerBlock is the number of words in a memory/cache block. Alewife
// uses 16-byte cache lines; with 4-byte Sparcle words that is four words
// per block, which we keep.
const WordsPerBlock = 4

// Block identifies an aligned memory block (Addr / WordsPerBlock).
type Block uint64

// BlockOf returns the block containing addr.
func BlockOf(a Addr) Block { return Block(a / WordsPerBlock) }

// Base returns the first word address of the block.
func (b Block) Base() Addr { return Addr(b) * WordsPerBlock }

// SegWords is the number of words in each node's memory segment:
// 4 Mbytes of 4-byte words in Alewife; we keep the 1 M-word segment.
const SegWords = 1 << 20

// HomeOf returns the node whose memory holds addr.
func HomeOf(a Addr) NodeID { return NodeID(a / SegWords) }

// HomeOfBlock returns the home node of a block.
func HomeOfBlock(b Block) NodeID { return HomeOf(b.Base()) }

// SegBase returns the first address of a node's segment.
func SegBase(n NodeID) Addr { return Addr(n) * SegWords }

// Memory is the machine's globally shared backing store plus a bump
// allocator per node segment. It holds word values only; all timing lives
// in the cache and protocol models.
//
// The store keeps one entry per written block, not one per word: the
// protocol moves whole blocks (a data reply reads one, a writeback writes
// one), so a block access is one map lookup instead of four, and a
// written block costs one entry. It is split by home segment — one map
// per node, indexed by HomeOf, a divide by a constant — because the home
// segment is what a home controller touches. Maps rather than dense
// per-segment arrays: a dense array sized to each segment's allocated
// blocks nearly tripled the allocation of the 256-node TSP run (Figure
// 5; 7.98 to 22 MB), and a reused array must be zeroed, not just copied
// over, by CloneInto.
type Memory struct {
	nodes int
	data  []map[Block][WordsPerBlock]uint64 // per-home-segment block store
	brk   []Addr                            // per-node allocation cursor, relative to segment base
}

// New creates the backing store for an n-node machine.
func New(n int) *Memory {
	m := &Memory{}
	m.Reset(n)
	return m
}

// Reset returns the store in place to what New(n) builds: every word
// zero and nothing allocated. It keeps the segment maps, emptied.
func (m *Memory) Reset(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("mem: machine with %d nodes", n))
	}
	if cap(m.data) < n {
		m.data = append(m.data[:cap(m.data)], make([]map[Block][WordsPerBlock]uint64, n-cap(m.data))...)
	}
	m.data = m.data[:n]
	for i, seg := range m.data {
		if seg == nil {
			m.data[i] = make(map[Block][WordsPerBlock]uint64)
		} else if len(seg) > 0 {
			clear(seg)
		}
	}
	if cap(m.brk) < n {
		m.brk = make([]Addr, n)
	}
	m.brk = m.brk[:n]
	clear(m.brk)
	m.nodes = n
}

// CloneInto returns an independent copy of the store and its
// allocators, reusing dst's storage when dst is not nil and has as many
// nodes.
func (m *Memory) CloneInto(dst *Memory) *Memory {
	if dst == nil || dst.nodes != m.nodes {
		dst = New(m.nodes)
	}
	for i, seg := range m.data {
		if len(dst.data[i]) > 0 {
			clear(dst.data[i])
		}
		maps.Copy(dst.data[i], seg)
	}
	copy(dst.brk, m.brk)
	return dst
}

// Nodes reports the number of node segments.
func (m *Memory) Nodes() int { return m.nodes }

// Read returns the word at addr (zero if never written).
func (m *Memory) Read(a Addr) uint64 {
	return m.data[HomeOf(a)][BlockOf(a)][a%WordsPerBlock]
}

// Write stores v at addr.
func (m *Memory) Write(a Addr, v uint64) {
	seg, b := m.data[HomeOf(a)], BlockOf(a)
	w := seg[b]
	w[a%WordsPerBlock] = v
	seg[b] = w
}

// ReadBlock returns a copy of the block's words.
func (m *Memory) ReadBlock(b Block) [WordsPerBlock]uint64 {
	return m.data[HomeOfBlock(b)][b]
}

// WriteBlock stores a block's words.
func (m *Memory) WriteBlock(b Block, w [WordsPerBlock]uint64) {
	m.data[HomeOfBlock(b)][b] = w
}

// AllocOn reserves words contiguous words in node n's segment, aligned to
// a block boundary, and returns the base address. Block alignment keeps
// distinct allocations from false-sharing a block unless the caller asks
// for it, which the worker-set experiments rely on.
func (m *Memory) AllocOn(n NodeID, words int) Addr {
	if int(n) >= m.nodes || n < 0 {
		panic(fmt.Sprintf("mem: AllocOn(%d) on %d-node machine", n, m.nodes))
	}
	if words <= 0 {
		words = 1
	}
	// Round the cursor up to a block boundary.
	cur := m.brk[n]
	if r := cur % WordsPerBlock; r != 0 {
		cur += WordsPerBlock - r
	}
	if cur+Addr(words) > SegWords {
		panic(fmt.Sprintf("mem: node %d segment exhausted (%d words requested)", n, words))
	}
	m.brk[n] = cur + Addr(words)
	return SegBase(n) + cur
}

// AllocStriped reserves one block-aligned run of words on every node and
// returns the per-node base addresses. It is the layout primitive for data
// structures the applications distribute round-robin across homes.
func (m *Memory) AllocStriped(words int) []Addr {
	out := make([]Addr, m.nodes)
	for n := range out {
		out[n] = m.AllocOn(NodeID(n), words)
	}
	return out
}

// InUse reports how many words node n has allocated.
func (m *Memory) InUse(n NodeID) Addr { return m.brk[n] }
