// Package sweep is the experiment orchestrator: a deterministic parallel
// job runner for simulation sweeps with a crash-safe, content-addressed
// result cache.
//
// The paper's evaluation is a large matrix of independent NWO runs — six
// applications plus WORKER across the whole protocol spectrum on machines
// of 16 to 256 nodes — that cost the authors machine-months of serial
// simulation. Every point in that matrix is an isolated, deterministic
// computation: a (program, machine configuration) pair that always
// produces the same result. That makes the matrix embarrassingly parallel
// and perfectly cacheable, and this package exploits both properties:
//
//   - a Job is a canonical, hashable description of one run;
//   - a Runner executes jobs on a bounded worker pool with per-job panic
//     recovery, a cycle budget, and context cancellation, running each
//     distinct job of a submission once and merging results back in
//     submission (matrix) order so sweep output is byte-identical to a
//     serial run at any worker count. Each worker keeps the machine of
//     its last job and resets it for the next (machine.Machine.Reset)
//     instead of building one per job; Execute builds a new one, and a
//     reset machine's results equal its;
//   - a Cache, the only result store, persists each finished result as a
//     file named by the SHA-256 of its job key and carrying a digest of
//     its own payload, so a killed sweep resumes by skipping finished jobs
//     and an unchanged matrix re-runs as pure cache hits.
//
// The package is part of the lint-enforced simulation core: everything
// outside the explicitly annotated worker-pool handoff follows the
// determinism contract.
package sweep
