package trace

import "swex/internal/sim"

// Category classifies a span by the machine resource it occupies. The
// attribution pass maps categories to latency components.
type Category uint8

// Span categories.
const (
	// CatProc is processor time: user compute and instruction fetch.
	CatProc Category = iota
	// CatMemOp is a whole memory-transaction window on the requesting
	// node, from request issue to cache fill. It is the flow root and is
	// not itself a latency component.
	CatMemOp
	// CatCache is cache-controller time: BUSY retry backoff.
	CatCache
	// CatNetQueue is time spent waiting in a mesh transmit or receive
	// queue — the paper's contention point.
	CatNetQueue
	// CatNetTransit is serialization and switch-to-switch flight time.
	CatNetTransit
	// CatHWDir is hardware directory time: the home CMMU's processing
	// pipeline and the DRAM access feeding a data reply.
	CatHWDir
	// CatSWHandler is protocol extension software occupancy on the home
	// node's processor.
	CatSWHandler
	// CatActivity is one per-activity segment nested inside a handler
	// span (stats.Activity resolution, as in the paper's Table 2).
	CatActivity
	// CatEngine is simulator-internal instrumentation (counter samples
	// from the event dispatch loop).
	CatEngine

	// NumCategories bounds the enum.
	NumCategories
)

// String names the category for exports.
func (c Category) String() string {
	switch c {
	case CatProc:
		return "proc"
	case CatMemOp:
		return "mem-op"
	case CatCache:
		return "cache"
	case CatNetQueue:
		return "net-queue"
	case CatNetTransit:
		return "net-transit"
	case CatHWDir:
		return "hw-dir"
	case CatSWHandler:
		return "sw-handler"
	case CatActivity:
		return "activity"
	case CatEngine:
		return "engine"
	case NumCategories:
		panic("trace: NumCategories is not a category")
	default:
		panic("trace: unknown category")
	}
}

// Op identifies what a span represents within its category.
type Op uint8

// Span operations.
const (
	// OpCompute is a user-compute reservation on a node's processor.
	OpCompute Op = iota
	// OpIfetch is an instruction-fetch stall.
	OpIfetch
	// OpMemRead is a completed read-transaction window (CatMemOp).
	OpMemRead
	// OpMemWrite is a completed write-transaction window (CatMemOp).
	OpMemWrite
	// OpRetryWait is the backoff window after a BUSY reply.
	OpRetryWait
	// OpTxQueue is time queued behind the source node's injection port.
	OpTxQueue
	// OpRxQueue is time queued at the destination's receive port.
	OpRxQueue
	// OpDRAM is the memory access and cache-fill occupancy charged before
	// a data reply is injected.
	OpDRAM
	// OpWire is serialization plus switch-to-switch flight.
	OpWire
	// OpRecv is receive-side serialization.
	OpRecv
	// OpHomeProc is the home CMMU's hardware processing of one message.
	OpHomeProc
	// OpHandler is one software-handler execution.
	OpHandler
	// OpActivity is one activity segment inside a handler.
	OpActivity
	// OpPending is an engine counter sample (Arg = pending events).
	OpPending

	// NumOps bounds the enum.
	NumOps
)

// String names the operation for exports.
func (o Op) String() string {
	switch o {
	case OpCompute:
		return "compute"
	case OpIfetch:
		return "ifetch"
	case OpMemRead:
		return "read"
	case OpMemWrite:
		return "write"
	case OpRetryWait:
		return "retry-wait"
	case OpTxQueue:
		return "tx-queue"
	case OpRxQueue:
		return "rx-queue"
	case OpDRAM:
		return "dram"
	case OpWire:
		return "wire"
	case OpRecv:
		return "recv"
	case OpHomeProc:
		return "home-proc"
	case OpHandler:
		return "handler"
	case OpActivity:
		return "activity"
	case OpPending:
		return "pending"
	case NumOps:
		panic("trace: NumOps is not an op")
	default:
		panic("trace: unknown op")
	}
}

// Event is one span on a node's timeline. Instant events (counter
// samples) have End == Start.
type Event struct {
	// Start and End bound the span in simulated cycles.
	Start, End sim.Cycle
	// Txn is the memory-transaction flow id (0 = unaffiliated).
	Txn uint64
	// Seq is the network-message sequence number grouping the component
	// spans of one message (0 = not a message component).
	Seq uint64
	// Arg is the op-specific detail: block number for memory and message
	// spans, reserved cycles for compute, pending count for counters.
	Arg int64
	// Node owns the timeline the span renders on (-1 = the engine).
	Node int32
	// Peer is the other endpoint of a message span (-1 otherwise).
	Peer int32
	// Cat classifies the occupied resource.
	Cat Category
	// Op identifies the span within its category.
	Op Op
	// Name is a short constant label ("RREQ", "write-fault", an
	// activity name). Emitters must pass constant or interned strings so
	// enabling tracing does not allocate per event.
	Name string
}

// Sink receives every emitted event. Implementations must be cheap: the
// hooks sit on simulator hot paths. A nil Sink disables tracing with no
// behavioral or allocation cost.
type Sink interface {
	// Emit records one event. Events arrive in deterministic emission
	// order but are not sorted by Start: spans are emitted when their
	// timing is known, which may be before the span ends.
	Emit(e Event)
}

// Collector is the default Sink: an append-only buffer, optionally
// bounded to a ring of the most recent events.
type Collector struct {
	events []Event
	limit  int // 0 = unbounded
	head   int // ring start when len(events) == limit
	total  uint64
}

// NewCollector returns an unbounded collector.
func NewCollector() *Collector { return &Collector{} }

// NewRing returns a collector retaining only the most recent limit
// events. Limit must be positive.
func NewRing(limit int) *Collector {
	if limit <= 0 {
		panic("trace: ring limit must be positive")
	}
	return &Collector{limit: limit}
}

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	c.total++
	if c.limit > 0 && len(c.events) == c.limit {
		c.events[c.head] = e
		c.head++
		if c.head == c.limit {
			c.head = 0
		}
		return
	}
	c.events = append(c.events, e)
}

// Events returns the retained events in emission order.
func (c *Collector) Events() []Event {
	out := make([]Event, 0, len(c.events))
	out = append(out, c.events[c.head:]...)
	out = append(out, c.events[:c.head]...)
	return out
}

// Total reports how many events were emitted, including any dropped by a
// bounded ring.
func (c *Collector) Total() uint64 { return c.total }
