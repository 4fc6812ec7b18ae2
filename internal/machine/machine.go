// Package machine assembles complete simulated Alewife machines: engine,
// mesh, memory, protocol fabric, extension software, and one processor per
// node. It is the NWO analog's top level — the thing an experiment
// configures and runs.
package machine

import (
	"fmt"
	"slices"

	"swex/internal/cache"
	"swex/internal/ext"
	"swex/internal/mem"
	"swex/internal/mesh"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/stats"
	"swex/internal/trace"
)

// SoftwareKind selects the protocol extension implementation.
type SoftwareKind int

const (
	// FlexibleC is the flexible coherence interface (default).
	FlexibleC SoftwareKind = iota
	// TunedASM is the hand-tuned assembly version (Dir_nH_5S_NB only).
	TunedASM
)

func (k SoftwareKind) String() string {
	if k == TunedASM {
		return "assembly"
	}
	return "C"
}

// Config describes one machine configuration — one point in the paper's
// experimental space.
type Config struct {
	// Nodes is the machine size (16, 64, and 256 in the paper).
	Nodes int
	// Spec selects the coherence protocol.
	Spec proto.Spec
	// Software selects the extension software implementation.
	Software SoftwareKind
	// VictimLines enables a victim cache of that many lines (0 = off).
	VictimLines int
	// PerfectIfetch enables the simulator's one-cycle instruction
	// fetch, eliminating instruction/data cache interference.
	PerfectIfetch bool
	// BatchReads enables the read-burst batching protocol enhancement
	// (see proto.Fabric.BatchReads).
	BatchReads bool
	// ParallelInv enables the parallel-invalidation software enhancement
	// (handler cost per transmitted invalidation drops; see ext).
	ParallelInv bool
	// MigratoryDetect enables migratory-data adaptation (see proto).
	MigratoryDetect bool
	// ThreadsPerNode runs several hardware contexts per node (Sparcle's
	// block multithreading for latency tolerance), at most
	// proc.MaxContexts. 0 or 1 matches the paper's single-threaded
	// experiments; Threads resolves the zero.
	ThreadsPerNode int
	// CacheLines overrides the 4096-line cache (0 = default). Every
	// exhibit runs the default; only tests shrink it, to reach evictions.
	CacheLines int
	// CacheWays sets the cache associativity (0 or 1 = direct-mapped,
	// as in Alewife; the paper's conclusion names set-associative caches
	// as the alternative to victim caching).
	CacheWays int
	// LoseInv, when positive, deliberately weakens the protocol: the
	// N-th invalidation message the machine sends (counted machine-wide,
	// 1-based) is silently dropped, and its acknowledgment is spoofed so
	// the issuing transaction still completes. The victim keeps a stale
	// copy the directory no longer tracks — the classic lost-invalidation
	// bug. This is a verification fixture, not a machine feature: the
	// litmus-fuzzing subsystem (internal/litmus, cmd/swexfuzz) runs it to
	// prove the sequential-consistency oracle catches real coherence
	// violations. Zero (the default) models the correct protocol.
	LoseInv int
	// CustomSoftware installs a user-written protocol extension instead
	// of the built-in handlers — the paper's Section 7 "write an
	// application-specific protocol under the flexible coherence
	// interface". When set, Software is ignored and Result.Ledger is nil.
	CustomSoftware proto.Software
	// Trace, when set, receives structured span events from every layer
	// of the machine (see internal/trace). Nil disables tracing entirely:
	// no observers are installed and the hot paths pay one nil branch.
	Trace trace.Sink
}

// DefaultConfig returns the paper's default machine: the given protocol
// and size with the flexible C software, no victim cache, real ifetch.
func DefaultConfig(nodes int, spec proto.Spec) Config {
	return Config{Nodes: nodes, Spec: spec}
}

// Machine is a fully assembled simulated multiprocessor.
type Machine struct {
	Cfg    Config
	Engine *sim.Engine
	Net    *mesh.Network
	Mem    *mem.Memory
	Fabric *proto.Fabric
	Soft   *ext.Handlers // nil for full-map
	Nodes  []*proc.Node

	// soft keeps the extension software's storage across configurations
	// that run without it; streams is the engine's key counter storage.
	soft    *ext.Handlers
	streams []uint64
}

// New builds a machine from a configuration.
func New(cfg Config) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the machine in place to exactly what New(cfg) builds,
// for any configuration New accepts, whatever the machine ran before: a
// run to completion, a run cut by its limit or deadlocked, or none. It
// keeps the storage of every layer: the engine's queue, the mesh queues,
// the memory segments, the controllers with their directories and cache
// lines, the extension software's tables and the processors, each up to
// the smaller of the two node counts. A Result read from the machine is
// valid until its next Reset, which reuses the counters and the ledger
// it points at. On error, which New would return too, the machine is
// unchanged.
//
// A machine whose run panicked may hold a thread suspended mid-body;
// leave it to the collector instead of resetting it.
func (m *Machine) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var soft *ext.Handlers
	if cfg.Spec.UsesSoftware() && cfg.CustomSoftware == nil {
		model := ext.FlexibleC()
		if cfg.Software == TunedASM {
			model = ext.TunedASM()
		}
		if m.soft == nil {
			m.soft = &ext.Handlers{}
		}
		if err := m.soft.Reset(cfg.Nodes, cfg.Spec, model); err != nil {
			return err
		}
		soft = m.soft
		soft.SetParallelInv(cfg.ParallelInv)
	}

	if m.Engine == nil {
		m.Engine, m.Net, m.Mem, m.Fabric = sim.NewEngine(), &mesh.Network{}, &mem.Memory{}, &proto.Fabric{}
	}
	engine := m.Engine
	m.Net.Reset(engine, mesh.DefaultConfig(cfg.Nodes))
	m.Mem.Reset(cfg.Nodes)

	ccfg := cache.DefaultConfig()
	if cfg.CacheLines > 0 {
		ccfg.Lines = cfg.CacheLines
	}
	ccfg.Ways = cfg.CacheWays
	ccfg.VictimLines = cfg.VictimLines
	softIface := cfg.CustomSoftware
	if soft != nil {
		softIface = soft
	}
	// The fabric takes back the receivers still pending in the engine,
	// so it resets first.
	fabric := m.Fabric
	if err := fabric.Reset(engine, m.Net, m.Mem, cfg.Spec, proto.DefaultTiming(),
		softIface, proto.CacheConfig{Cache: ccfg, PerfectIfetch: cfg.PerfectIfetch}); err != nil {
		return err
	}
	engine.Reset()
	// Canonical event keys (one counter stream per node) make the order
	// of same-cycle events independent of how scheduling calls from
	// different nodes interleave (DESIGN.md §8).
	m.streams = slices.Grow(m.streams[:0], cfg.Nodes)[:cfg.Nodes]
	clear(m.streams)
	engine.SetStreams(m.streams)
	fabric.BatchReads = cfg.BatchReads
	fabric.MigratoryDetect = cfg.MigratoryDetect
	// A spoofed acknowledgment lets the home's transaction complete
	// while the victim's stale copy survives.
	fabric.Fault = proto.Fault{Kind: proto.MsgINV, Nth: cfg.LoseInv, SpoofAck: true}
	if cfg.Trace != nil {
		fabric.Sink = cfg.Trace
		m.Net.Obs = fabric
		engine.Observer = pendingSampler(cfg.Trace)
	}

	m.Cfg, m.Soft = cfg, soft
	if cap(m.Nodes) < cfg.Nodes {
		m.Nodes = append(m.Nodes[:cap(m.Nodes)], make([]*proc.Node, cfg.Nodes-cap(m.Nodes))...)
	}
	m.Nodes = m.Nodes[:cfg.Nodes]
	for i, n := range m.Nodes {
		if n == nil {
			n = &proc.Node{}
			m.Nodes[i] = n
		}
		n.Reset(fabric, mem.NodeID(i))
	}
	return nil
}

// pendingSamplePeriod spaces the engine's pending-event counter samples:
// dense enough to show load phases, sparse enough not to swamp the trace.
const pendingSamplePeriod sim.Cycle = 256

// pendingSampler builds the engine observer that emits the pending-event
// counter track: one sample per pendingSamplePeriod cycles of simulated
// time, attributed to the engine pseudo-node (-1).
func pendingSampler(sink trace.Sink) func(now sim.Cycle, pending int) {
	var next sim.Cycle
	return func(now sim.Cycle, pending int) {
		if now < next {
			return
		}
		next = now + pendingSamplePeriod
		sink.Emit(trace.Event{
			Start: now, End: now, Arg: int64(pending), Node: -1, Peer: -1,
			Cat: trace.CatEngine, Op: trace.OpPending, Name: "pending",
		})
	}
}

// MustNew is New for configurations known statically valid.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("machine: invalid config: %v", err))
	}
	return m
}

// ConfigureBlock reconfigures the coherence protocol of a single memory
// block before its first use — Alewife's block-by-block protocol selection
// (paper Section 3.1), the mechanism behind the "data specific" coherence
// types of Section 7. Typical use: promote a known hot, widely-shared
// block to the full-map protocol while the rest of memory runs a cheap
// limited directory.
func (m *Machine) ConfigureBlock(b mem.Block, spec proto.Spec) error {
	return m.Fabric.Home(mem.HomeOfBlock(b)).Configure(b, spec)
}

// Result summarizes one run.
type Result struct {
	// Time is the parallel run time: the cycle the last thread finished.
	Time sim.Cycle
	// Finish holds each node's completion cycle.
	Finish []sim.Cycle
	// Traps is the machine-wide software handler count.
	Traps uint64
	// HandlerCycles is processor time spent in protocol handlers.
	HandlerCycles sim.Cycle
	// Messages is the network message count.
	Messages uint64
	// BusyRetries counts BUSY-induced retransmissions.
	BusyRetries uint64
	// Counters is the fabric's full counter set.
	Counters *stats.Counters
	// Ledger is the handler-latency ledger (nil for full-map).
	Ledger *stats.Ledger
	// WorkerSets is the per-block maximum worker-set histogram.
	WorkerSets *stats.Hist
}

// Run executes program (one thread per node) to completion and returns the
// run summary. The limit bounds simulated cycles (0 = none); exceeding it
// or deadlocking returns an error wrapping ErrIncomplete that identifies
// the stuck nodes.
func (m *Machine) Run(program func(*proc.Env), limit sim.Cycle) (Result, error) {
	threads := m.Cfg.Threads()
	for _, n := range m.Nodes {
		n.StartThreads(threads, program)
	}
	// RunUntil stops short of every thread finishing only when the event
	// queue drains (a deadlock: simulated time can no longer advance) or
	// the limit is reached.
	if !m.Engine.RunUntil(proc.Finished(m.Fabric), limit) {
		var stuck []mem.NodeID
		for _, n := range m.Nodes {
			if !n.Done() {
				stuck = append(stuck, n.ID)
			}
		}
		m.stopThreads()
		return Result{}, fmt.Errorf("%w at cycle %d (stuck nodes: %v, pending events: %d)",
			ErrIncomplete, m.Engine.Now(), stuck, m.Engine.Pending())
	}
	return m.result(), nil
}

// stopThreads unwinds every unfinished thread after a run that did not
// complete, so a failed run leaves no suspended coroutine behind.
func (m *Machine) stopThreads() {
	for _, n := range m.Nodes {
		n.Stop()
	}
}

func (m *Machine) result() Result {
	r := Result{
		Counters:   m.Fabric.Counters,
		WorkerSets: m.Fabric.WorkerSetHist(),
		Finish:     make([]sim.Cycle, len(m.Nodes)),
	}
	for i, n := range m.Nodes {
		r.Finish[i] = n.FinishedAt()
		if r.Finish[i] > r.Time {
			r.Time = r.Finish[i]
		}
	}
	for i := 0; i < m.Cfg.Nodes; i++ {
		r.Traps += m.Fabric.Home(mem.NodeID(i)).Traps
		r.HandlerCycles += m.Fabric.Traps.HandlerBusy(mem.NodeID(i))
		r.BusyRetries += m.Fabric.Cache(mem.NodeID(i)).Retries
	}
	r.Messages = m.Net.Messages
	if m.Soft != nil {
		r.Ledger = &m.Soft.Ledger
	}
	return r
}
