// Package swex is a software-extended coherent shared memory system: a
// from-scratch reproduction of Chaiken & Agarwal, "Software-Extended
// Coherent Shared Memory: Performance and Cost" (ISCA 1994) — the MIT
// Alewife LimitLESS directory work.
//
// The package simulates, cycle by cycle, a mesh multiprocessor whose
// cache-coherence directory is implemented partly in hardware (a small set
// of pointers per memory block) and partly in protocol extension software
// that the hardware traps into when the pointers are exhausted. The full
// spectrum of the paper's protocols is available, from the software-only
// directory Dir_nH_0S_NB,ACK through the LimitLESS family Dir_nH_XS_NB to
// a DASH-style full-map directory, plus the Dir_1H_1S_B,LACK broadcast
// protocol of the cooperative shared memory work.
//
// The top-level entry points are:
//
//   - NewMachine / (*Machine).Run: build a simulated machine and run a
//     program (one thread per node) against the shared-memory API.
//   - Benchmarks: the WORKER synthetic stress test and the six
//     applications of the paper's Section 6 (TSP, AQ, SMGRID, EVOLVE,
//     MP3D, WATER).
//   - Experiments: one function per table and figure of the paper
//     (Table1 .. Figure6) that regenerates its data on the simulator,
//     plus the ablations discussed in the text.
//
// All simulation is deterministic: a configuration runs to the identical
// cycle count every time.
package swex

import (
	"swex/internal/apps"
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/memtier"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/stats"
	"swex/internal/sweep"
	"swex/internal/trace"
)

// Protocol identifies one coherence protocol of the spectrum, in the
// paper's Dir_iH_XS_Y,A notation.
type Protocol = proto.Spec

// AckMode selects acknowledgment handling for the one-pointer protocols.
type AckMode = proto.AckMode

// Acknowledgment modes (paper Section 2.4).
const (
	AckHW   = proto.AckHW
	AckLACK = proto.AckLACK
	AckSW   = proto.AckSW
)

// FullMap returns Dir_nH_NB S_-: the full-map directory.
func FullMap() Protocol { return proto.FullMap() }

// LimitLESS returns Dir_nH_kS_NB for k >= 2.
func LimitLESS(k int) Protocol { return proto.LimitLESS(k) }

// OnePointer returns the Dir_nH_1S_NB variant with the given ack mode.
func OnePointer(mode AckMode) Protocol { return proto.OnePointer(mode) }

// SoftwareOnly returns Dir_nH_0S_NB,ACK: the software-only directory.
func SoftwareOnly() Protocol { return proto.SoftwareOnly() }

// Dir1SW returns Dir_1H_1S_B,LACK: the broadcast protocol.
func Dir1SW() Protocol { return proto.Dir1SW() }

// Directoryless returns DLS: the directoryless shared-LLC machine, where
// nothing is cached and every access is served directly by the home node.
// It trades all coherence hardware and software for a network round trip
// per access — the far end of the memory-system axis the machine-spectrum
// study (Tiers) sweeps.
func Directoryless() Protocol { return proto.Directoryless() }

// Spectrum returns the paper's protocols in increasing hardware cost.
func Spectrum() []Protocol { return proto.Spectrum() }

// MemTier selects the memory-system family behind the home directories
// (flat DRAM, disaggregated far memory, or hybrid DRAM/NVM); set it
// through MachineConfig.MemTier. The zero value is the paper's flat
// machine. See internal/memtier.
type MemTier = memtier.Config

// DisaggregatedMemory returns the disaggregated-memory scenario used by
// the machine-spectrum exhibits: home memory across a second interconnect
// tier with hop latency, a bandwidth cap, and queueing.
func DisaggregatedMemory() MemTier { return memtier.DefaultDisaggregated() }

// TieredMemory returns the hybrid DRAM/NVM scenario used by the
// machine-spectrum exhibits: asymmetric NVM read/write latencies with
// deterministic hot-block promotion into a bounded per-home DRAM set.
func TieredMemory() MemTier { return memtier.DefaultTiered() }

// Machine is a fully assembled simulated multiprocessor.
type Machine = machine.Machine

// MachineConfig selects machine size, protocol, software implementation,
// and cache options.
type MachineConfig = machine.Config

// Software implementation selectors.
const (
	FlexibleC = machine.FlexibleC
	TunedASM  = machine.TunedASM
)

// Result summarizes a run.
type Result = machine.Result

// Env is the shared-memory programming interface application threads use.
type Env = proc.Env

// NodeID identifies a node; Addr a shared-memory word; Cycle a time point.
type (
	NodeID = mem.NodeID
	Addr   = mem.Addr
	Cycle  = sim.Cycle
)

// CyclesPerSecond is the simulated clock rate (33 MHz, as in Alewife).
const CyclesPerSecond = sim.CyclesPerSecond

// NewMachine builds a machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// App is a workload: the WORKER benchmark or one of the six applications.
type App = apps.Program

// AppInstance is an App set up on a specific machine.
type AppInstance = apps.Instance

// Apps returns the six applications of the paper's Section 6 at their
// default (scaled) problem sizes, in Figure 4 order.
func Apps() []App { return apps.Registry() }

// AppByName retrieves one application by its paper name.
func AppByName(name string) (App, error) { return apps.ByName(name) }

// Worker returns the WORKER synthetic benchmark with the given worker-set
// size and iteration count (paper Section 5).
func Worker(setSize, iters int) App {
	return apps.Worker(apps.WorkerParams{SetSize: setSize, Iters: iters})
}

// Block identifies an aligned shared-memory block.
type Block = mem.Block

// ProtocolSoftware is the flexible coherence interface: the contract a
// protocol extension implementation satisfies. Install a custom
// implementation through MachineConfig.CustomSoftware to experiment with
// application-specific protocols, as the paper's Section 7 suggests.
// SharersOf's result is borrowed: the simulator reads it before its next
// call into the implementation and never keeps or writes it, so an
// implementation may return a fresh slice or reuse one buffer.
type ProtocolSoftware = proto.Software

// WordsPerBlock is the block size in 64-bit words.
const WordsPerBlock = mem.WordsPerBlock

// Handler request kinds for slicing Result.Ledger measurements.
const (
	ReadHandler  = stats.ReadRequest
	WriteHandler = stats.WriteRequest
	AckHandler   = stats.AckRequest
	LocalHandler = stats.LocalRequest
)

// TraceSink receives structured span events from a traced run; install one
// through MachineConfig.Trace. See internal/trace for the event model,
// critical-path attribution, and the Perfetto exporter behind cmd/swextrace.
type TraceSink = trace.Sink

// TraceEvent is one span in a trace.
type TraceEvent = trace.Event

// TraceCollector accumulates trace events in memory.
type TraceCollector = trace.Collector

// NewTraceCollector returns an unbounded in-memory trace sink.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// NewTraceRing returns a bounded trace sink keeping the last limit events.
func NewTraceRing(limit int) *TraceCollector { return trace.NewRing(limit) }

// Sweeper is the parallel experiment orchestrator: it executes matrices of
// simulation jobs on a worker pool, deduplicates identical points, and —
// when configured with a cache directory — persists every finished result
// in a content-addressed store with a crash-safe manifest journal, so
// killed sweeps resume and unchanged matrices re-run as pure cache hits.
// Results merge in submission order, so sweep output is byte-identical to
// a serial run at any worker count. See internal/sweep.
type Sweeper = sweep.Runner

// SweeperConfig selects the worker count, cache directory, key salt, and
// cycle budget of a Sweeper.
type SweeperConfig = sweep.Config

// SweepJob is one point of an experiment matrix: a canonical, hashable
// description of a single simulation run.
type SweepJob = sweep.Job

// SweepResult is the cacheable summary of one finished job.
type SweepResult = sweep.Result

// SweepOutcome is the per-job verdict of a Sweeper.Sweep call.
type SweepOutcome = sweep.Outcome

// NewSweeper builds a sweep runner (opening the disk cache when
// SweeperConfig.CacheDir is set). Pass it through Options.Sweep to share
// one result cache across experiments, or call its Run/Sweep methods with
// jobs built by SweepWorkerJob / SweepAppJob or the XxxJobs experiment
// matrix builders.
func NewSweeper(cfg SweeperConfig) (*Sweeper, error) { return sweep.NewRunner(cfg) }

// SweepWorkerJob builds a WORKER job for a sweep matrix.
func SweepWorkerJob(setSize, iters int, cfg MachineConfig) SweepJob {
	return sweep.WorkerJob(setSize, iters, cfg)
}

// SweepAppJob builds an application job (by paper name) for a sweep matrix.
func SweepAppJob(name string, quick bool, cfg MachineConfig) SweepJob {
	return sweep.AppJob(name, quick, cfg)
}
