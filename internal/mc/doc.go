// Package mc is an exhaustive explicit-state model checker for the
// protocol spectrum. It drives the real proto/dir/cache/sim machinery —
// no re-modeling — through every interleaving of a small action alphabet
// (per-node read, write, evict, CICO check-in/check-out, and optionally
// the Watch producer–consumer primitive, against a handful of blocks)
// and asserts the coherence invariants on every reachable state.
//
// The simulated trace checker (proto.Checker) only ever witnesses the
// states a benchmark happens to visit; directory protocols break in the
// adversarial interleavings — an invalidation racing a data reply, an
// eviction crossing a recall — that benchmarks rarely produce. The model
// checker enumerates them all, for configurations small enough to
// exhaust.
//
// # Forking by copy
//
// Every pending event of a machine is a typed receiver holding only data,
// so proto.Fabric.Clone copies a machine's whole simulated state. The
// search is breadth-first; a frontier entry is a trace and a sleep set.
// The checker keeps a stack of worlds along the last materialized trace
// (see path): it builds a frontier state by copying the deepest stacked
// world on the state's trace prefix and applying the remaining choices,
// and each successor by copying that world and applying one more choice.
// Level by level in trace order, the remainder is short, and at most
// MaxDepth+1 worlds are held; dead worlds lend their storage to the next
// copy. Replaying a trace on a fresh machine — the engine is
// deterministic, so replay reconstructs the state exactly — is the
// oracle the copies are tested against, and how Explain narrates.
// The visited set is keyed by the canonical state fingerprint
// (proto.Fabric.AppendSnapshot), so two traces that converge on the same
// logical state are explored once.
//
// At every state the available choices are:
//
//   - step: fire the next pending engine event (message delivery, handler
//     completion, busy retry, watch re-arm) — exactly one successor,
//     because the engine orders events deterministically;
//   - inject op: present one enabled processor operation to a cache
//     controller, for every (node, block, action) whose action is enabled.
//
// The interleavings of injections against event firings are exactly the
// schedules a real machine could exhibit at some combination of latencies.
// All worlds run at zero latency (mesh.ZeroLatency, zero proto.Timing) so
// simulated time stays effectively frozen and logically identical states
// fingerprint identically regardless of history. (Watch re-arms are the
// one deliberate exception: they fire a cycle out, and the snapshot layer
// encodes each pending event's relative firing delay so the fingerprint
// stays sound — see proto.Fabric.Snapshot.)
//
// # Mixed-spec machines
//
// Config.Overrides applies Alewife's block-by-block protocol selection
// (proto.HomeCtl.Configure) before exploration starts, so a machine whose
// blocks run different protocols — one full-map, one LimitLESS — is
// checked against the same invariants as a uniform one.
//
// # Invariants
//
// After every transition the checker asserts, for every tracked block:
// single writer (an Exclusive copy is the only copy,
// proto.Fabric.SingleWriterViolation), identical readers (all Shared
// copies hold the same words, proto.Fabric.IdenticalReadersViolation),
// and directory–cache agreement (proto.Fabric.AgreementViolation) — the
// predicates the runtime checker (proto.Checker) evaluates too. Whenever the event queue is empty it
// additionally asserts quiescence — no in-flight messages, no outstanding
// miss transactions, no incomplete operations beyond parked watchers, and
// every directory entry in a stable state — and lost-wakeup: a watcher
// still parked at quiescence must be parked on the block's current
// coherent value, or a wakeup was dropped and the consumer sleeps
// forever.
//
// # Partial-order reduction
//
// Config.POR enables sleep-set partial-order reduction (por.go) in the
// same search loop: injections that commute — they touch different
// blocks, and no software trap can serialize them on a shared home node —
// are explored in one order instead of all orders. The unreduced run is
// that loop with every sleep set empty. The reduction preserves every
// invariant verdict and the exact set of quiescent states;
// TestPOREquivalence proves that against full enumeration on every
// configuration small enough to run both.
//
// Determinism contract: Check is a pure function of its Config — every
// run of the same configuration explores states in the same order,
// returns the same counts, and finds the same shortest counterexample.
// See MODELCHECK.md for the full design story.
package mc
