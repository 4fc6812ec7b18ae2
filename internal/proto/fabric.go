package proto

import (
	"fmt"

	"swex/internal/mem"
	"swex/internal/memtier"
	"swex/internal/mesh"
	"swex/internal/sim"
	"swex/internal/stats"
	"swex/internal/trace"
)

// Fabric wires the per-node controllers to the shared machine resources:
// the event engine, the mesh network, the backing memory, the trap
// scheduler, and the protocol extension software. One Fabric underlies one
// simulated machine.
type Fabric struct {
	Engine *sim.Engine
	Net    *mesh.Network
	Mem    *mem.Memory
	Timing Timing
	Spec   Spec
	Traps  TrapScheduler
	Soft   Software
	// MigratoryDetect enables the migratory-data adaptation (paper
	// Section 7 "dynamic detection"): blocks observed to hop
	// read-modify-write between nodes are served with Exclusive grants
	// on reads, merging each hop's two transactions into one.
	MigratoryDetect bool
	// BatchReads enables the read-burst batching enhancement: read
	// requests arriving while a read-overflow handler runs are drained
	// by it at incremental cost instead of being busied. This is one of
	// the Section 7 "dynamic detection" style enhancements: it speeds
	// up widely-read, rarely-written data (WATER's molecule records) and
	// slows down frequently-written shared words (task-queue heads), so
	// it is off by default.
	BatchReads bool
	// Counters aggregates machine-wide protocol event counts.
	Counters *stats.Counters
	// Trace, when set, receives every protocol message and trap.
	Trace Tracer
	// Sink, when set, receives structured span events for the tracing
	// subsystem (see internal/trace and sink.go). Nil disables tracing
	// at one branch per hook.
	Sink trace.Sink
	// Tier, when set, is the memory-hierarchy model behind the home
	// directories (internal/memtier): it prices every directory-side
	// block access in place of the flat Timing.MemLatency and makes
	// concurrent accesses queue on the home's tier link or memory
	// channel. Nil is the paper's flat machine at one branch per access.
	Tier *memtier.Model
	// Fault, when set, intercepts every message before it is injected
	// into the network; returning true silently drops it. It exists for
	// fault injection: the model checker's seeded-bug demos (a skipped
	// invalidation, a lost acknowledgment) are expressed as drop filters,
	// and the checker then finds the interleaving that turns the lost
	// message into an invariant violation. Dropped messages are counted
	// under "msg.dropped".
	Fault func(Msg) bool

	homes      []*HomeCtl
	caches     []*CacheCtl
	checker    *Checker
	inflight   []*flight
	flightPool []*flight // retired entries awaiting reuse
	txnSeq     uint64    // trace transaction ids (tracing enabled only)
	msgSeq     uint64    // trace message sequence numbers
}

// flight is one registered in-flight message; its identity ties the
// delivery event back to the registry entry, and it doubles as the
// delivery event's inspection tag and its delivery receiver (sim.Caller).
// Entries are pooled on the owning Fabric: a retired flight returns to
// flightPool, so the steady-state send path allocates nothing.
type flight struct {
	f *Fabric
	m Msg
}

// Fire delivers the message: it retires the registry entry, returns it to
// the pool, and hands the message to the destination controller. The pool
// return happens before Deliver so nested sends can reuse the slot.
func (fl *flight) Fire() {
	f, m := fl.f, fl.m
	f.retire(fl)
	f.flightPool = append(f.flightPool, fl)
	if m.Kind.ToHome() {
		f.homes[m.Dst].Deliver(m)
	} else {
		f.caches[m.Dst].Deliver(m)
	}
}

// msgCounterNames precomputes the per-kind counter keys so the send path
// does not rebuild "msg.<kind>" strings per message.
var msgCounterNames = func() (out [numMsgKinds]string) {
	for k := MsgKind(0); k < numMsgKinds; k++ {
		out[k] = "msg." + k.String()
	}
	return out
}()

// blockTag is the inspection tag for scheduled protocol work that is not
// an in-flight message: handler completions, queued home processing,
// watch re-arms, and instruction fills. It carries the rendered label the
// snapshot layer encodes plus the block the work targets, so the model
// checker's partial-order reduction can ask which block the next pending
// event touches (Fabric.NextEventBlock) without parsing labels.
type blockTag struct {
	label string
	b     mem.Block
}

// procTag is the inspection tag for a message queued at a busy home for
// hardware processing. It carries the message itself rather than a
// pre-rendered label: the snapshot layer must encode the message's epoch
// relative to the directory entry's current epoch (exactly as it does
// for in-flight messages), and a label rendered at scheduling time would
// bake in the absolute epoch — a history artifact that would split
// logically identical states.
//
// Like flight, the tag doubles as the event's delivery receiver
// (sim.Caller) and is pooled on the owning HomeCtl, so queueing a message
// for hardware processing allocates nothing in steady state.
type procTag struct {
	h    *HomeCtl
	node mem.NodeID
	m    Msg
}

// Fire processes the queued message, returning the tag to its
// controller's pool first so nested deliveries can reuse the slot.
func (t *procTag) Fire() {
	h, m := t.h, t.m
	h.jobPool = append(h.jobPool, t)
	h.process(m)
}

// NewFabric builds the fabric and both controllers for every node.
// Software may be nil only for the full-map protocol.
func NewFabric(engine *sim.Engine, net *mesh.Network, memory *mem.Memory,
	spec Spec, timing Timing, traps TrapScheduler, soft Software,
	cacheCfg CacheConfig) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := net.Nodes()
	if memory.Nodes() != n {
		return nil, fmt.Errorf("proto: memory has %d nodes, network %d", memory.Nodes(), n)
	}
	if soft == nil && spec.UsesSoftware() {
		return nil, fmt.Errorf("proto: %s requires protocol extension software", spec.Name)
	}
	f := &Fabric{
		Engine:   engine,
		Net:      net,
		Mem:      memory,
		Timing:   timing,
		Spec:     spec,
		Traps:    traps,
		Soft:     soft,
		Counters: stats.NewCounters(),
	}
	f.homes = make([]*HomeCtl, n)
	f.caches = make([]*CacheCtl, n)
	for i := 0; i < n; i++ {
		f.homes[i] = newHomeCtl(f, mem.NodeID(i))
		f.caches[i] = newCacheCtl(f, mem.NodeID(i), cacheCfg)
	}
	return f, nil
}

// Nodes reports the machine size.
func (f *Fabric) Nodes() int { return len(f.homes) }

// Home returns node id's home-side controller.
func (f *Fabric) Home(id mem.NodeID) *HomeCtl { return f.homes[id] }

// Cache returns node id's cache-side controller.
func (f *Fabric) Cache(id mem.NodeID) *CacheCtl { return f.caches[id] }

// Send injects a protocol message into the network and delivers it to the
// destination controller when it arrives.
//
//swex:hotpath
func (f *Fabric) Send(m Msg) { f.SendDelayed(m, 0) }

// SendDelayed injects a message whose contents take extra cycles to
// produce (a DRAM read feeding a data reply). The message claims its
// place in the network queues immediately, so per-destination delivery
// order always follows call order — the invariant the protocol's
// data-before-invalidation races rely on.
//
//swex:hotpath
func (f *Fabric) SendDelayed(m Msg, extra sim.Cycle) {
	if f.Fault != nil && f.Fault(m) {
		f.Counters.Inc("msg.dropped")
		if f.Trace != nil {
			f.Trace.Event(f.Engine.Now(), "drop", m.String())
		}
		return
	}
	f.Counters.Inc(msgCounterNames[m.Kind])
	f.traceMsg(m)
	var fl *flight
	if n := len(f.flightPool); n > 0 {
		fl = f.flightPool[n-1]
		f.flightPool[n-1] = nil
		f.flightPool = f.flightPool[:n-1]
	} else {
		fl = &flight{f: f}
	}
	fl.m = m
	f.inflight = append(f.inflight, fl)
	f.Net.SendCall(int(m.Src), int(m.Dst), f.Timing.Flits(m.Kind), extra, fl, fl)
}

// retire removes a delivered message from the in-flight registry. The
// shift-down removal preserves send order without reallocating.
func (f *Fabric) retire(fl *flight) {
	for i, cur := range f.inflight {
		if cur == fl {
			copy(f.inflight[i:], f.inflight[i+1:])
			last := len(f.inflight) - 1
			f.inflight[last] = nil
			f.inflight = f.inflight[:last]
			return
		}
	}
	panic("proto: retiring a message that is not in flight")
}

// InFlight returns the messages currently in the network, in send order.
// The coherence checker consults it (a cached copy is legitimately
// untracked exactly while its invalidation is racing toward it), and the
// model checker folds it into the machine-state fingerprint.
func (f *Fabric) InFlight() []Msg {
	out := make([]Msg, len(f.inflight))
	for i, fl := range f.inflight {
		out[i] = fl.m
	}
	return out
}

// invInFlight reports whether an invalidation for block b is on the wire
// toward node id.
func (f *Fabric) invInFlight(b mem.Block, id mem.NodeID) bool {
	for _, fl := range f.inflight {
		if fl.m.Kind == MsgINV && fl.m.Block == b && fl.m.Dst == id {
			return true
		}
	}
	return false
}

// WorkerSetHist builds the Figure 6 histogram: for every block any home
// directory tracked, the largest simultaneous worker set it reached.
func (f *Fabric) WorkerSetHist() *stats.Hist {
	h := stats.NewHist()
	for _, hc := range f.homes {
		hc.forEachEntry(func(b mem.Block, max int) {
			if max > 0 {
				h.Add(max)
			}
		})
	}
	return h
}
