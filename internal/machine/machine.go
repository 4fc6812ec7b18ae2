// Package machine assembles complete simulated Alewife machines: engine,
// mesh, memory, protocol fabric, extension software, and one processor per
// node. It is the NWO analog's top level — the thing an experiment
// configures and runs.
package machine

import (
	"fmt"

	"swex/internal/cache"
	"swex/internal/ext"
	"swex/internal/mem"
	"swex/internal/memtier"
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
	// block multithreading for latency tolerance). 0 or 1 matches the
	// paper's single-threaded experiments.
	ThreadsPerNode int
	// CacheLines overrides the 4096-line cache (0 = default). The
	// application studies shrink this so scaled-down working sets still
	// exercise the cache the way full-size problems exercised Alewife's.
	CacheLines int
	// CacheWays sets the cache associativity (0 or 1 = direct-mapped,
	// as in Alewife; the paper's conclusion names set-associative caches
	// as the alternative to victim caching).
	CacheWays int
	// Timing overrides hardware latencies (zero value = defaults).
	Timing proto.Timing
	// MemTier selects the memory system behind the home directories
	// (internal/memtier): flat per-node DRAM (the zero value, the
	// paper's machine), rack-scale disaggregated memory over a second
	// interconnect tier, or hybrid DRAM/NVM with hot-block promotion.
	// Orthogonal to Spec: any protocol runs over any memory system.
	MemTier memtier.Config
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
	Traps  *ext.WatchdogTraps
	Nodes  []*proc.Node
}

// New builds a machine from a configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine := sim.NewEngine()
	// Canonical event keys (one counter stream per node) make the order
	// of same-cycle events independent of how scheduling calls from
	// different nodes interleave (DESIGN.md §8).
	engine.SetStreams(make([]uint64, cfg.Nodes))
	net := mesh.New(engine, mesh.DefaultConfig(cfg.Nodes))
	memory := mem.New(cfg.Nodes)
	traps := ext.NewWatchdogTraps(engine, cfg.Nodes)

	var soft *ext.Handlers
	if cfg.Spec.UsesSoftware() && cfg.CustomSoftware == nil {
		model := ext.FlexibleC()
		if cfg.Software == TunedASM {
			model = ext.TunedASM()
		}
		var err error
		soft, err = ext.New(cfg.Nodes, cfg.Spec, model)
		if err != nil {
			return nil, err
		}
		soft.SetParallelInv(cfg.ParallelInv)
	}

	timing := cfg.Timing
	if timing == (proto.Timing{}) {
		timing = proto.DefaultTiming()
	}
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
	fabric, err := proto.NewFabric(engine, net, memory, cfg.Spec, timing, traps,
		softIface, proto.CacheConfig{Cache: ccfg, PerfectIfetch: cfg.PerfectIfetch})
	if err != nil {
		return nil, err
	}
	fabric.BatchReads = cfg.BatchReads
	fabric.MigratoryDetect = cfg.MigratoryDetect
	fabric.Tier = memtier.New(engine, cfg.Nodes, cfg.MemTier)
	if cfg.LoseInv > 0 {
		remaining := cfg.LoseInv
		fabric.Fault = func(m proto.Msg) bool {
			if m.Kind != proto.MsgINV {
				return false
			}
			remaining--
			if remaining != 0 {
				return false
			}
			// Spoof the acknowledgment so the home's transaction
			// completes while the victim's stale copy survives.
			fabric.Send(proto.Msg{Kind: proto.MsgACK, Src: m.Dst, Dst: m.Src, Block: m.Block, Epoch: m.Epoch})
			return true
		}
	}
	if cfg.Trace != nil {
		fabric.Sink = cfg.Trace
		net.Obs = fabric
		engine.Observer = pendingSampler(cfg.Trace)
	}

	m := &Machine{
		Cfg:    cfg,
		Engine: engine,
		Net:    net,
		Mem:    memory,
		Fabric: fabric,
		Soft:   soft,
		Traps:  traps,
		Nodes:  make([]*proc.Node, cfg.Nodes),
	}
	for i := range m.Nodes {
		m.Nodes[i] = proc.NewNode(fabric, mem.NodeID(i))
	}
	return m, nil
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
// or deadlocking returns an error identifying the stuck nodes.
func (m *Machine) Run(program func(*proc.Env), limit sim.Cycle) (Result, error) {
	threads := m.Cfg.ThreadsPerNode
	if threads < 1 {
		threads = 1
	}
	for _, n := range m.Nodes {
		n.StartThreads(threads, program)
	}
	finished := func() bool {
		for _, n := range m.Nodes {
			if !n.Done() {
				return false
			}
		}
		return true
	}
	ok := m.Engine.RunUntil(finished, limit)
	if !ok {
		var stuck []mem.NodeID
		for _, n := range m.Nodes {
			if !n.Done() {
				stuck = append(stuck, n.ID)
			}
		}
		return Result{}, fmt.Errorf("machine: run did not complete at cycle %d (stuck nodes: %v, pending events: %d)",
			m.Engine.Now(), stuck, m.Engine.Pending())
	}
	return m.result(), nil
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
		r.HandlerCycles += m.Traps.HandlerBusy(mem.NodeID(i))
		r.BusyRetries += m.Fabric.Cache(mem.NodeID(i)).Retries
	}
	r.Messages = m.Net.Messages
	if m.Soft != nil {
		r.Ledger = &m.Soft.Ledger
	}
	return r
}

// Timeline is a coarse profile of a run: protocol activity sampled at
// fixed simulated-time intervals, for seeing the phases of an application
// (ramp-up, steady state, termination) at a glance.
type Timeline struct {
	// Interval is the sample spacing in cycles.
	Interval sim.Cycle
	// Messages and Traps hold the per-interval deltas.
	Messages []uint64
	Traps    []uint64
}

// RunProfiled is Run with periodic sampling every interval cycles.
func (m *Machine) RunProfiled(program func(*proc.Env), limit sim.Cycle, interval sim.Cycle) (Result, *Timeline, error) {
	if interval == 0 {
		interval = 10_000
	}
	threads := m.Cfg.ThreadsPerNode
	if threads < 1 {
		threads = 1
	}
	for _, n := range m.Nodes {
		n.StartThreads(threads, program)
	}
	finished := func() bool {
		for _, n := range m.Nodes {
			if !n.Done() {
				return false
			}
		}
		return true
	}
	tl := &Timeline{Interval: interval}
	var lastMsgs, lastTraps uint64
	sample := func() {
		msgs := m.Net.Messages
		var traps uint64
		for i := 0; i < m.Cfg.Nodes; i++ {
			traps += m.Fabric.Home(mem.NodeID(i)).Traps
		}
		tl.Messages = append(tl.Messages, msgs-lastMsgs)
		tl.Traps = append(tl.Traps, traps-lastTraps)
		lastMsgs, lastTraps = msgs, traps
	}
	for !finished() {
		segEnd := m.Engine.Now() + interval
		if limit != 0 && segEnd > limit {
			segEnd = limit
		}
		m.Engine.RunUntil(finished, segEnd)
		sample()
		// A drained event queue with unfinished threads is a deadlock:
		// simulated time can no longer advance toward the limit.
		deadlocked := m.Engine.Pending() == 0 && !finished()
		if deadlocked || (limit != 0 && m.Engine.Now() >= limit && !finished()) {
			var stuck []mem.NodeID
			for _, n := range m.Nodes {
				if !n.Done() {
					stuck = append(stuck, n.ID)
				}
			}
			return Result{}, tl, fmt.Errorf("machine: profiled run did not complete at cycle %d (stuck nodes: %v)",
				m.Engine.Now(), stuck)
		}
	}
	return m.result(), tl, nil
}
