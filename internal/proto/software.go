package proto

import (
	"swex/internal/mem"
	"swex/internal/sim"
)

// Software is the protocol extension software the hardware invokes at trap
// points. Implementations (internal/ext) maintain the software-extended
// directory with real data structures — a hash table of extended entries
// and a free-list allocator, as in the paper's flexible coherence
// interface — and return the handler's cost in processor cycles, which the
// home controller charges to the local processor before completing the
// transition.
//
// The hardware half (HomeCtl) performs the actual state transitions and
// message transmissions when the handler's cycles have elapsed; the
// Software implementation decides what those cycles cost and remembers the
// extended sharer sets.
type Software interface {
	// ReadOverflow extends the directory for block b with the drained
	// hardware pointers and the requesting node, returning the handler
	// cost. For the software-only directory every read lands here with
	// an empty drain list.
	ReadOverflow(b mem.Block, drained []mem.NodeID, requester mem.NodeID) sim.Cycle

	// ReadBatched records one more reader while a read handler for b is
	// already running: the handler drains the CMMU's queued requests
	// before returning, so piggybacked reads pay only the incremental
	// decode-and-store cost, not a fresh trap.
	ReadBatched(b mem.Block, requester mem.NodeID) sim.Cycle

	// SharersOf returns b's software-resident sharer list in ascending
	// node order (empty if no extended entry exists). The slice is
	// borrowed: it is valid until the next call into the Software, and
	// the caller only reads it. Implementations may return storage they
	// reuse, so callers that keep the list past that point copy it.
	SharersOf(b mem.Block) []mem.NodeID

	// WriteFault frees b's extended entry and returns the cost of the
	// write-fault handler, which locates the sharers and transmits invs
	// invalidation messages on behalf of the requester.
	WriteFault(b mem.Block, requester mem.NodeID, invs int) sim.Cycle

	// AckTrap returns the cost of fielding one acknowledgment in
	// software (the S_NB,ACK protocols); last marks the final
	// acknowledgment, whose handler also transmits the data reply.
	AckTrap(b mem.Block, last bool) sim.Cycle

	// LastAckTrap returns the cost of the S_NB,LACK trap taken on the
	// final acknowledgment to transmit the data reply.
	LastAckTrap(b mem.Block) sim.Cycle
}

// NopSoftware is a Software that charges a fixed cost (zero by default)
// and remembers sharers as sorted per-block lists. It stands in for
// protocol software in hardware-focused unit tests; the real
// implementations live in internal/ext.
type NopSoftware struct {
	sets map[mem.Block][]mem.NodeID // ascending node order per block
	// copied holds the lists a clone copied in, for the next clone into
	// this one to reuse.
	copied [][]mem.NodeID
	// FixedCost is charged for every handler invocation.
	FixedCost sim.Cycle
}

// NewNopSoftware returns an empty zero-cost software implementation.
func NewNopSoftware() *NopSoftware {
	return &NopSoftware{sets: make(map[mem.Block][]mem.NodeID)}
}

// add records id in b's sharer list, keeping the list sorted and
// duplicate-free.
func (s *NopSoftware) add(b mem.Block, id mem.NodeID) {
	set := s.sets[b]
	i := 0
	for i < len(set) && set[i] < id {
		i++
	}
	if i < len(set) && set[i] == id {
		return
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = id
	s.sets[b] = set
}

// ReadOverflow implements Software at the fixed cost.
func (s *NopSoftware) ReadOverflow(b mem.Block, drained []mem.NodeID, r mem.NodeID) sim.Cycle {
	for _, d := range drained {
		s.add(b, d)
	}
	s.add(b, r)
	return s.FixedCost
}

// ReadBatched implements Software at a quarter of the fixed cost.
func (s *NopSoftware) ReadBatched(b mem.Block, r mem.NodeID) sim.Cycle {
	s.add(b, r)
	return s.FixedCost / 4
}

// SharersOf implements Software. The returned slice is the live list,
// borrowed under the interface's contract: valid until the next call,
// read only.
func (s *NopSoftware) SharersOf(b mem.Block) []mem.NodeID {
	return s.sets[b]
}

// WriteFault implements Software at the fixed cost.
func (s *NopSoftware) WriteFault(b mem.Block, r mem.NodeID, invs int) sim.Cycle {
	delete(s.sets, b)
	return s.FixedCost
}

// AckTrap implements Software at the fixed cost.
func (s *NopSoftware) AckTrap(mem.Block, bool) sim.Cycle { return s.FixedCost }

// LastAckTrap implements Software at the fixed cost.
func (s *NopSoftware) LastAckTrap(mem.Block) sim.Cycle { return s.FixedCost }
