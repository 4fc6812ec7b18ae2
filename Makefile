# Verification entry points. `make check` is what CI should run.

GO ?= go

.PHONY: all build test lint vet race check mc mc-smoke mc-por-smoke bench bench-sweep bench-memtier trace-smoke sweep-smoke swexd-smoke fuzz-smoke memtier-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the repository's own static-analysis suite (cmd/swexlint):
# determinism, exhaustive-enum, cycle-math, and panic-hygiene rules over
# every non-test package. See the "Determinism contract" in DESIGN.md.
lint:
	$(GO) run ./cmd/swexlint ./...

vet:
	$(GO) vet ./...

# race exercises the only packages that touch goroutines (the engine, the
# network model, the machine's lockstep thread handoff, the sweep
# orchestrator's worker pool, and the distributed sweep service) under the
# race detector, plus the memory-model fuzzing layer whose runs ride the
# sweep worker pool and the memory-tier models that ride the mesh's server
# primitives. The simulation core is single-threaded by contract, so the
# interesting schedules are in the lockstep handoff, the pool merge, and
# the coordinator's lease machinery.
race:
	$(GO) test -race ./internal/sim/... ./internal/mesh/... ./internal/machine/... ./internal/memtier/... ./internal/sweep/... ./internal/swexd/... ./internal/litmus/...

# mc exhausts the model checker's full-depth configurations over the
# whole protocol spectrum, with sleep-set partial-order reduction on
# (each line prints the pruned-edge count; POR preserves every verdict
# and every quiescent state — TestPOREquivalence is the proof). The
# reduction is what makes the deep configurations (4 nodes x 2 blocks,
# 3 nodes x 3 blocks, 3 ops) exhaustible: unreduced, the software-only
# protocol at 3x3 blows through the default state bound. ~10 minutes of
# work; run before protocol changes.
mc:
	$(GO) run ./cmd/swexmc -por -nodes 2 -blocks 1 -ops 4
	$(GO) run ./cmd/swexmc -por -nodes 3 -blocks 1 -ops 3
	$(GO) run ./cmd/swexmc -por -nodes 2 -blocks 2 -ops 3
	$(GO) run ./cmd/swexmc -por -nodes 2 -blocks 2 -ops 3 -watch
	$(GO) run ./cmd/swexmc -por -nodes 4 -blocks 2 -ops 3
	$(GO) run ./cmd/swexmc -por -nodes 3 -blocks 3 -ops 3
	$(GO) run ./cmd/swexmc -por -nodes 3 -blocks 1 -ops 3 -mig -batch

# mc-smoke is the bounded model-checking run wired into `make check`: the
# 2-node spectrum sweep with golden reachable-state counts, POR off (the
# goldens pin the *unreduced* state space).
mc-smoke:
	$(GO) test ./internal/mc/

# mc-por-smoke pins the reduced runs: golden state/transition/slept
# counts for two fast POR configurations, plus the POR-vs-full
# equivalence sweep and the deliberately-unsound-relation fixture that
# proves the equivalence criteria have teeth.
mc-por-smoke:
	$(GO) test ./internal/mc/ -run 'TestPOR'

# bench runs every benchmark once and regenerates the committed baseline.
# The baseline pins benchmark *structure* (names, metric kinds) and gives
# reviewers a reference point; absolute times are machine-specific.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... | $(GO) run ./cmd/swexbench -o BENCH_baseline.json

# bench-sweep regenerates the committed sweep-orchestration baseline: the
# quick Figure 2 matrix serial / 4-worker / warm-cache, plus the pool
# overlap benchmarks (the honest parallel-speedup measurement on machines
# without spare cores; see EXPERIMENTS.md).
bench-sweep:
	$(GO) test -run '^$$' -bench 'PoolOverlap|SweepFig2' -benchtime 3x ./internal/sweep/ . | $(GO) run ./cmd/swexbench -o BENCH_sweep.json

# sweep-smoke exercises the sweep orchestrator end to end: the determinism
# and crash-resume suites, then the swexsweep CLI cold and warm over one
# cache directory — the warm run must execute zero simulations.
sweep-smoke:
	$(GO) test ./internal/sweep/ -run 'TestCrashResume|TestCacheRoundTrip|TestCompact' -count=1
	$(GO) test . -run 'TestSweepOutputDeterministic|TestSharedBaselineComputedOnce' -count=1
	d=$$(mktemp -d) && \
	  $(GO) run ./cmd/swexsweep -quick -workers 4 -cache $$d fig2 >/dev/null && \
	  $(GO) run ./cmd/swexsweep -quick -workers 4 -cache $$d fig2 2>&1 >/dev/null | grep -q ' 0 executed' && \
	  $(GO) run ./cmd/swexsweep -status -cache $$d >/dev/null && \
	  $(GO) run ./cmd/swexsweep -cache $$d compact >/dev/null && \
	  $(GO) run ./cmd/swexsweep -quick -workers 4 -cache $$d fig2 2>&1 >/dev/null | grep -q ' 0 executed' && \
	  rm -rf $$d

# swexd-smoke exercises the distributed sweep service end to end: the
# coordinator/worker suite (lease expiry, worker loss mid-lease, the
# HTTP/NDJSON front end, cross-process warm resubmission), then the
# acceptance check — a coordinator with three in-process workers renders
# the full quick exhibit matrix byte-identically to a serial run, and a
# warm resubmission executes zero simulations.
swexd-smoke:
	$(GO) test ./internal/swexd/ -count=1
	$(GO) test . -run 'TestDistributedExhibitsByteIdentical' -count=1

# fuzz-smoke exercises the memory-model fuzzing pipeline end to end: the
# litmus package's oracle suite (verdict tables, cross-validation of the
# two exact decision procedures), then a seeded swexfuzz campaign cold and
# warm over one cache directory — the warm run must execute zero
# simulations and print byte-identical stdout — and finally the negative
# control: a machine weakened to drop an invalidation must be flagged by
# the oracle, proving the pipeline can see a coherence bug.
fuzz-smoke:
	$(GO) test ./internal/litmus/ -count=1
	d=$$(mktemp -d) && \
	  $(GO) run ./cmd/swexfuzz -seed 1 -programs 50 -cache $$d >$$d/cold.out && \
	  $(GO) run ./cmd/swexfuzz -seed 1 -programs 50 -cache $$d 2>$$d/warm.err >$$d/warm.out && \
	  cmp $$d/cold.out $$d/warm.out && \
	  grep -q ' 0 simulation' $$d/warm.err && \
	  rm -rf $$d
	$(GO) run ./cmd/swexfuzz -weakened >/dev/null

# memtier-smoke exercises the memory-tier subsystem end to end: the model's
# unit suite, the model checker's cross-family equivalence and
# directoryless goldens, the litmus corpus under tiered timing with the
# sequential-consistency oracle, and the machine-spectrum exhibit through
# the CLI (all three families plus the directoryless machine in one sweep).
memtier-smoke:
	$(GO) test ./internal/memtier/ -count=1
	$(GO) test ./internal/mc/ -run 'MemTier|Directoryless' -count=1
	$(GO) test ./internal/litmus/ -run 'MemTier|WeakenedFixtureStillCaught' -count=1
	$(GO) run ./cmd/swex -quick tiers >/dev/null

# bench-memtier regenerates the committed memory-tier overhead baseline:
# the directory memory-access hook when no tier is installed (must cost
# ~nothing), each tier family's hot path, and the directoryless machine
# against full-map on the same workload.
bench-memtier:
	$(GO) test -run '^$$' -bench 'MemTier|Directoryless' -benchtime 1x -benchmem . ./internal/memtier/ | $(GO) run ./cmd/swexbench -o BENCH_memtier.json

# trace-smoke exercises the tracing pipeline end to end: a traced run must
# export, export deterministically, and round-trip the profile view. The
# per-package tests assert the details; this is the `make check` wiring.
trace-smoke:
	$(GO) test ./internal/trace/
	$(GO) run ./cmd/swextrace -worker 4 -iters 2 -nodes 4 -protocol h2 -o /tmp/swextrace-smoke.json
	$(GO) run ./cmd/swextrace profile -worker 4 -iters 2 -nodes 4 -protocol h2 >/dev/null

check: vet lint test race mc-smoke mc-por-smoke trace-smoke sweep-smoke swexd-smoke fuzz-smoke memtier-smoke
