package proto

import (
	"fmt"

	"swex/internal/mem"
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
	Traps  Traps
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
	// Fault, when armed (Nth > 0), drops one message before it is
	// injected into the network (see Fault). Dropped messages are counted
	// under "msg.dropped".
	Fault Fault
	// Completer receives the completions of operations issued by ID
	// (see Op.ID); nil discards them.
	Completer Completer

	// faultSeen counts the messages of Fault.Kind offered so far: the
	// fault's progress, which the snapshot encodes.
	faultSeen int

	homes      []*HomeCtl
	caches     []*CacheCtl
	checker    *Checker
	inflight   flightList
	flightFree *flight // retired entries awaiting reuse, linked by next
	txnSeq     uint64  // trace transaction ids (tracing enabled only)
	msgSeq     uint64  // trace message sequence numbers

	// Snapshot and clone scratch space, reused across calls.
	snapIDs    []mem.NodeID
	snapEvents []sim.TaggedEvent
	cloneKeys  []mem.Block
}

// flight is one registered in-flight message; its identity ties the
// delivery event back to the registry entry, and it doubles as the
// delivery event's inspection tag and its delivery receiver (sim.Caller).
// Entries are pooled on the owning Fabric: a retired flight returns to
// the flightFree list, so the steady-state send path allocates nothing.
type flight struct {
	f          *Fabric
	m          Msg
	prev, next *flight // registry links; next is also the free-list link
}

// flightList is the in-flight registry: the messages on the wire, linked
// in send order. Messages are delivered out of send order (different
// distances, different destinations), and unlinking retires one in O(1)
// where a slice would shift its tail down.
type flightList struct {
	head, tail *flight
	n          int
}

// push appends fl, the newest message, to the registry.
func (l *flightList) push(fl *flight) {
	fl.prev, fl.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = fl
	} else {
		l.head = fl
	}
	l.tail = fl
	l.n++
}

// remove unlinks fl, a registered message, from the registry.
func (l *flightList) remove(fl *flight) {
	if fl.prev != nil {
		fl.prev.next = fl.next
	} else {
		l.head = fl.next
	}
	if fl.next != nil {
		fl.next.prev = fl.prev
	} else {
		l.tail = fl.prev
	}
	fl.prev, fl.next = nil, nil
	l.n--
}

// Fire delivers the message: it retires the registry entry, hands the
// message to the destination controller straight from the entry, and
// then returns the entry to the free list.
func (fl *flight) Fire() {
	f := fl.f
	f.inflight.remove(fl)
	if fl.m.Kind.ToHome() {
		f.homes[fl.m.Dst].Deliver(&fl.m)
	} else {
		f.caches[fl.m.Dst].Deliver(&fl.m)
	}
	fl.next, f.flightFree = f.flightFree, fl
}

// The fabric's counter slots (stats.Register), so counting on the
// message and handler paths indexes a slot instead of hashing a name.
var (
	// msgCounters counts sent messages by kind, as "msg.<kind>".
	msgCounters = func() (out [numMsgKinds]stats.Counter) {
		for k := MsgKind(0); k < numMsgKinds; k++ {
			out[k] = stats.Register("msg." + k.String())
		}
		return out
	}()
	ctrDropped         = stats.Register("msg.dropped")
	ctrTraps           = stats.Register("home.traps")
	ctrBatchedReads    = stats.Register("home.batched_reads")
	ctrHWInvalidations = stats.Register("home.hw_invalidations")
	ctrSWInvalidations = stats.Register("home.sw_invalidations")
	ctrCheckins        = stats.Register("home.checkins")
	ctrMigReadGrants   = stats.Register("home.migratory_read_grants")
	ctrMigPromotions   = stats.Register("home.migratory_promotions")
	ctrMigDemotions    = stats.Register("home.migratory_demotions")
	ctrEvictions       = stats.Register("cache.evictions")
	ctrBusyRetries     = stats.Register("cache.busy_retries")
)

// Fault is a deterministic fault injection, as data: it drops the Nth
// message of one kind the fabric sends. The model checker's seeded-bug
// demos (a skipped invalidation, a lost acknowledgment) and the litmus
// fuzzer's weakened machine are expressed this way, and the checker then
// finds the interleaving that turns the lost message into an invariant
// violation. The zero value injects nothing.
type Fault struct {
	// Kind is the message kind counted and dropped.
	Kind MsgKind
	// Nth selects the message to drop, 1-based, counting messages of
	// Kind machine-wide in send order. Zero disarms the fault.
	Nth int
	// SpoofAck answers a dropped message with the acknowledgment its
	// destination would have sent (meaningful for MsgINV): the issuing
	// transaction completes while the victim keeps a stale copy the
	// directory no longer tracks — the classic lost-invalidation bug.
	SpoofAck bool
}

// faultDrops reports whether the armed fault drops m, advancing its
// progress.
func (f *Fabric) faultDrops(m Msg) bool {
	if m.Kind != f.Fault.Kind {
		return false
	}
	f.faultSeen++
	if f.faultSeen != f.Fault.Nth {
		return false
	}
	if f.Fault.SpoofAck {
		f.Send(Msg{Kind: MsgACK, Src: m.Dst, Dst: m.Src, Block: m.Block, Epoch: m.Epoch})
	}
	return true
}

// faultLeft reports how many more messages of the fault's kind must be
// sent before it drops one; zero once it has dropped.
func (f *Fabric) faultLeft() int {
	if f.faultSeen >= f.Fault.Nth {
		return 0
	}
	return f.Fault.Nth - f.faultSeen
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
	next *procTag // free-list link
}

// Fire processes the queued message in place, then returns the tag to
// its controller's free list. Processing never delivers to a home
// synchronously (replies travel as events), so no delivery needs the
// tag while it is in use.
func (t *procTag) Fire() {
	h := t.h
	h.process(&t.m)
	t.next, h.jobFree = h.jobFree, t
}

// NewFabric builds the fabric and both controllers for every node.
// Software may be nil only for the full-map protocol.
func NewFabric(engine *sim.Engine, net *mesh.Network, memory *mem.Memory,
	spec Spec, timing Timing, soft Software,
	cacheCfg CacheConfig) (*Fabric, error) {
	f := &Fabric{}
	if err := f.Reset(engine, net, memory, spec, timing, soft, cacheCfg); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset returns the fabric in place to what NewFabric builds from the
// same arguments: every controller empty (HomeCtl.reset, CacheCtl.reset)
// and bound again, every cache reset to the configured geometry, zero
// counters, no tracer, sink, fault, checker or Completer. It keeps the
// storage of the controllers of the first net.Nodes() nodes (maps,
// directories, cache lines, carrier free lists), the counter slots and
// the in-flight registry entries. On error, which NewFabric would return
// too, nothing changes.
//
// The receivers still pending in the fabric's engine return to their
// free lists, so reset the engine after the fabric: an engine reset
// first leaves nothing to take back, and the receivers go to the
// collector instead.
func (f *Fabric) Reset(engine *sim.Engine, net *mesh.Network, memory *mem.Memory,
	spec Spec, timing Timing, soft Software, cacheCfg CacheConfig) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	n := net.Nodes()
	if memory.Nodes() != n {
		return fmt.Errorf("proto: memory has %d nodes, network %d", memory.Nodes(), n)
	}
	if soft == nil && spec.UsesSoftware() {
		return fmt.Errorf("proto: %s requires protocol extension software", spec.Name)
	}
	if f.Engine != nil {
		f.reclaim()
	}
	homes, caches := grow(f.homes, n), grow(f.caches, n)
	counters := f.Counters
	if counters == nil {
		counters = stats.NewCounters()
	} else {
		counters.Reset()
	}
	*f = Fabric{
		Engine:     engine,
		Net:        net,
		Mem:        memory,
		Timing:     timing,
		Spec:       spec,
		Traps:      f.Traps,
		Soft:       soft,
		Counters:   counters,
		homes:      homes,
		caches:     caches,
		flightFree: f.flightFree,
		snapIDs:    f.snapIDs,
		snapEvents: f.snapEvents,
		cloneKeys:  f.cloneKeys,
	}
	f.Traps.reset(engine, n)
	for i := range n {
		id := mem.NodeID(i)
		if h := homes[i]; h == nil {
			homes[i] = newHomeCtl(f, id, n)
		} else {
			h.reset()
			h.bind(f, id, n)
		}
		if cc := caches[i]; cc == nil {
			caches[i] = newCacheCtl(f, id, cacheCfg)
		} else {
			cc.reset()
			cc.bind(f, id, cacheCfg)
		}
	}
	return nil
}

// grow returns s resized to n, keeping the elements it held up to its
// capacity, including those an earlier shrink cut off.
func grow[T any](s []T, n int) []T {
	if c := cap(s); c < n {
		s = append(s[:c], make([]T, n-c)...)
	}
	return s[:n]
}

// Nodes reports the machine size.
func (f *Fabric) Nodes() int { return len(f.homes) }

// Home returns node id's home-side controller.
func (f *Fabric) Home(id mem.NodeID) *HomeCtl { return f.homes[id] }

// Cache returns node id's cache-side controller.
func (f *Fabric) Cache(id mem.NodeID) *CacheCtl { return f.caches[id] }

// Send injects a protocol message into the network and delivers it to the
// destination controller when it arrives.
func (f *Fabric) Send(m Msg) { f.send(&m, 0) }

// SendDelayed injects a message whose contents take extra cycles to
// produce (a DRAM read feeding a data reply). The message claims its
// place in the network queues immediately, so per-destination delivery
// order always follows call order — the invariant the protocol's
// data-before-invalidation races rely on.
func (f *Fabric) SendDelayed(m Msg, extra sim.Cycle) { f.send(&m, extra) }

// send is Send and SendDelayed, reading the message in place: a message
// is copied once on its way out, into its registry entry.
func (f *Fabric) send(m *Msg, extra sim.Cycle) {
	if f.Fault.Nth > 0 && f.faultDrops(*m) {
		f.Counters.Inc(ctrDropped)
		if f.Trace != nil {
			f.Trace.Event(f.Engine.Now(), "drop", m.String())
		}
		return
	}
	f.Counters.Inc(msgCounters[m.Kind])
	if f.Trace != nil {
		f.traceMsg(*m)
	}
	fl := f.grabFlight()
	fl.m = *m
	f.inflight.push(fl)
	f.Net.SendCall(int(m.Src), int(m.Dst), f.Timing.Flits(m.Kind), extra, fl, fl)
}

// grabFlight takes an in-flight registry entry from the free list, or
// allocates one.
func (f *Fabric) grabFlight() *flight {
	fl := f.flightFree
	if fl == nil {
		return &flight{f: f}
	}
	f.flightFree, fl.next = fl.next, nil
	return fl
}

// InFlight returns the messages currently in the network, in send order.
// The coherence checker consults it (a cached copy is legitimately
// untracked exactly while its invalidation is racing toward it), and the
// model checker folds it into the machine-state fingerprint.
func (f *Fabric) InFlight() []Msg {
	out := make([]Msg, 0, f.inflight.n)
	for fl := f.inflight.head; fl != nil; fl = fl.next {
		out = append(out, fl.m)
	}
	return out
}

// invInFlight reports whether an invalidation for block b is on the wire
// toward node id.
func (f *Fabric) invInFlight(b mem.Block, id mem.NodeID) bool {
	for fl := f.inflight.head; fl != nil; fl = fl.next {
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
