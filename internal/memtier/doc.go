// Package memtier models the memory hierarchy behind a node's directory:
// what it costs, at a given cycle, for the home to read or write a block's
// backing store.
//
// The simulated machine no longer uses it: the memory-tier wiring in the
// protocol engine, machine.Config.MemTier and the "tiers" exhibit were
// retired, because the paper studies only how much of the directory is
// hardware and how much software. The package, with mesh.TierLink, is
// kept only for the perfbench microbenchmark rows memtier.access_ns.*;
// both go when the next benchmark change deletes those rows.
//
// Three memory-system kinds are modeled:
//
//   - KindFlat: the paper's machine — per-node DRAM at a fixed latency
//     (proto.Timing.MemLatency). A flat model is the package's zero value,
//     and New returns a nil *Model for it.
//   - KindDisaggregated: home blocks live in rack-scale far memory
//     reached over a second interconnect tier (mesh.TierLink) with its
//     own hop latency, serialization bandwidth cap, and FIFO queueing —
//     the DRackSim-style machine.
//   - KindTiered: hybrid DRAM/NVM behind the directory with asymmetric
//     read/write latencies and a deterministic, cycle-driven hot-block
//     promotion policy: a block's Nth touch promotes it into a bounded
//     per-home DRAM set, evicting the oldest resident in promotion order.
//
// Every model is deterministic: the same access sequence at the same
// cycles yields the same latencies, so simulations stay byte-reproducible
// and cacheable by the sweep layer.
package memtier
