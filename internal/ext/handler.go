package ext

import (
	"fmt"

	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/stats"
)

// Handlers is the machine-wide protocol extension software: one software
// directory per node (extended entries live on the home node whose
// hardware overflowed) plus a shared cost model and measurement ledger.
// It implements proto.Software.
type Handlers struct {
	cost     CostModel
	spec     proto.Spec
	maxNodes int
	nodes    []nodeSW
	parInv   bool
	// sharers is SharersOf's result buffer, one slot per node: the list
	// it returns is borrowed and valid until the next call.
	sharers []mem.NodeID
	// Ledger records every handler invocation for Tables 1 and 2.
	Ledger stats.Ledger

	// last is the most recent handler's activity breakdown, kept for the
	// tracing subsystem (proto.BreakdownReporter); lastOK marks it valid.
	last   stats.Breakdown
	lastOK bool
}

// nodeSW is one node's software directory state.
type nodeSW struct {
	table *hashTable
	fl    freeList
}

var (
	_ proto.Software          = (*Handlers)(nil)
	_ proto.BreakdownReporter = (*Handlers)(nil)
)

// LastBreakdown implements proto.BreakdownReporter: the per-activity
// breakdown of the most recent handler, when one was recorded (batched
// read segments charge a flat incremental cost with no breakdown).
func (h *Handlers) LastBreakdown() (stats.Breakdown, bool) {
	return h.last, h.lastOK
}

// record notes one handler invocation in the ledger and remembers its
// breakdown for LastBreakdown.
func (h *Handlers) record(rec stats.HandlerRecord) {
	h.Ledger.Record(rec)
	h.last = rec.Breakdown
	h.lastOK = true
}

// New builds the extension software for an n-node machine running spec
// under the given cost model.
func New(n int, spec proto.Spec, cost CostModel) (*Handlers, error) {
	h := &Handlers{}
	if err := h.Reset(n, spec, cost); err != nil {
		return nil, err
	}
	return h, nil
}

// Reset returns the handlers in place to what New(n, spec, cost) builds:
// empty software directories, an empty ledger, parallel invalidation
// off. It keeps the hash tables of the first n nodes, emptied; the bucket
// array is what a table costs to build. The free lists start empty, as a
// new machine's do: the cost model charges a recycled entry differently
// from a fresh one. On error, which New would return too, nothing
// changes.
func (h *Handlers) Reset(n int, spec proto.Spec, cost CostModel) error {
	if cost.Name == "Assembly" && spec.Name != "DirnH5SNB" {
		return fmt.Errorf("ext: the hand-tuned assembly handlers implement only DirnH5SNB, not %s", spec.Name)
	}
	if cap(h.nodes) < n {
		h.nodes = append(h.nodes[:cap(h.nodes)], make([]nodeSW, n-cap(h.nodes))...)
	}
	h.nodes = h.nodes[:n]
	for i := range h.nodes {
		t := h.nodes[i].table
		if t == nil {
			t = newHashTable(tableBuckets)
		} else {
			t.reset()
		}
		h.nodes[i] = nodeSW{table: t}
	}
	if cap(h.sharers) < n {
		h.sharers = make([]mem.NodeID, n)
	}
	h.cost, h.spec, h.maxNodes, h.parInv = cost, spec, n, false
	h.sharers = h.sharers[:n]
	h.Ledger.Reset()
	h.last, h.lastOK = stats.Breakdown{}, false
	return nil
}

// tableBuckets sizes each node's extended-directory hash table.
const tableBuckets = 256

// SetParallelInv enables the parallel-invalidation enhancement: the write
// handler overlaps invalidation transmission with the CMMU instead of
// transmitting sequentially (paper Section 7's dynamic-detection research;
// modeled here as a static configuration).
func (h *Handlers) SetParallelInv(on bool) { h.parInv = on }

func (h *Handlers) home(b mem.Block) *nodeSW {
	return &h.nodes[mem.HomeOfBlock(b)]
}

// smallOpt reports whether the memory-usage optimization applies: the
// entry's worker set still fits inline and the protocol implements the
// optimization (the paper's Section 5: Dir_nH_1S_NB,LACK,
// Dir_nH_1S_NB,ACK and Dir_nH_0S_NB,ACK, for worker sets of 4 or less).
func (h *Handlers) smallOpt(e *entry) bool {
	if e.spilled() {
		return false
	}
	return h.spec.SoftwareOnly ||
		(h.spec.HWPointers == 1 && !h.spec.Broadcast &&
			(h.spec.AckMode == proto.AckLACK || h.spec.AckMode == proto.AckSW))
}

// ReadOverflow implements proto.Software: extend the directory with the
// drained hardware pointers plus the requester.
func (h *Handlers) ReadOverflow(b mem.Block, drained []mem.NodeID, requester mem.NodeID) sim.Cycle {
	ns := h.home(b)
	e, probes := ns.table.lookup(b)
	kind := allocTouch
	if e == nil {
		if ns.fl.head != nil {
			kind = allocReuse
		} else {
			kind = allocFresh
		}
		e = ns.fl.get()
		ns.table.insert(e, b)
	}
	stored := 0
	for _, d := range drained {
		if e.add(d, h.maxNodes) {
			stored++
		}
	}
	if e.add(requester, h.maxNodes) {
		stored++
	}
	// The software-only directory transmits the data itself; LimitLESS
	// reads have their data sent by hardware before the trap.
	sendsData := h.spec.SoftwareOnly
	cost, breakdown := h.cost.readCost(kind, stored, probes, sendsData, h.smallOpt(e))
	rk := stats.ReadRequest
	if h.spec.SoftwareOnly && requester == mem.HomeOfBlock(b) {
		rk = stats.LocalRequest
	}
	h.record(stats.HandlerRecord{
		Kind: rk, Cycles: uint64(cost), Sharers: e.n, Breakdown: breakdown,
	})
	return cost
}

// ReadBatched implements proto.Software: record one more reader from
// inside the running handler's message-drain loop.
func (h *Handlers) ReadBatched(b mem.Block, requester mem.NodeID) sim.Cycle {
	ns := h.home(b)
	e, _ := ns.table.lookup(b)
	if e == nil {
		// The running handler inserted the entry at its start; a missing
		// entry means the drain raced a write fault — pay full price.
		return h.ReadOverflow(b, nil, requester)
	}
	e.add(requester, h.maxNodes)
	// Batched segments charge a flat incremental cost with no activity
	// breakdown; invalidate the last one so tracing does not reuse it.
	h.lastOK = false
	return h.cost.batchedReadCost(h.spec.SoftwareOnly)
}

// SharersOf implements proto.Software. The list lives in a buffer the
// Handlers own and is valid until the next call into them.
func (h *Handlers) SharersOf(b mem.Block) []mem.NodeID {
	e, _ := h.home(b).table.lookup(b)
	if e == nil {
		return nil
	}
	return e.sharersInto(h.sharers)
}

// WriteFault implements proto.Software: release the extended entry and
// charge for walking the sharer set and transmitting the invalidations.
func (h *Handlers) WriteFault(b mem.Block, requester mem.NodeID, invs int) sim.Cycle {
	ns := h.home(b)
	e, probes := ns.table.remove(b)
	sharers := 0
	freed := false
	if e != nil {
		sharers = e.n
		freed = true
		ns.fl.put(e)
	}
	cost, breakdown := h.cost.writeCost(sharers, invs, probes, freed, h.parInv)
	h.record(stats.HandlerRecord{
		Kind: stats.WriteRequest, Cycles: uint64(cost), Sharers: invs, Breakdown: breakdown,
	})
	return cost
}

// AckTrap implements proto.Software for the S_NB,ACK protocols.
func (h *Handlers) AckTrap(b mem.Block, last bool) sim.Cycle {
	cost, breakdown := h.cost.ackCost(last)
	h.record(stats.HandlerRecord{
		Kind: stats.AckRequest, Cycles: uint64(cost), Breakdown: breakdown,
	})
	return cost
}

// LastAckTrap implements proto.Software for the S_NB,LACK protocols.
func (h *Handlers) LastAckTrap(b mem.Block) sim.Cycle {
	cost, breakdown := h.cost.ackCost(true)
	h.record(stats.HandlerRecord{
		Kind: stats.AckRequest, Cycles: uint64(cost), Breakdown: breakdown,
	})
	return cost
}

// Resident reports how many extended entries node holds (testing aid).
func (h *Handlers) Resident(node mem.NodeID) int { return h.nodes[node].table.Len() }
