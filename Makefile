# Verification entry points. `make check` is what CI should run.

GO ?= go

.PHONY: all build test lint vet race check mc mc-smoke mc-por-smoke trace-smoke sweep-smoke fuzz-smoke memtier-smoke bench-smoke

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

# race runs under the race detector the packages that touch goroutines
# (the network model and the sweep orchestrator's worker pool), plus the
# memory-model fuzzing layer whose runs ride the sweep worker pool, the
# memory-tier models that ride the mesh's server primitives, and the
# simulation core itself: the engine, the processor model, and the
# machine. The core is single-threaded by contract — application threads
# are coroutines that alternate with the engine and start no goroutines —
# so a report there means something broke the lockstep. The interesting
# schedules are in the pool merge, the result cache's journal, and cache
# line storage that one sweep worker releases and another reuses
# (TestReusedCacheStorageIsInvisible).
race:
	$(GO) test -race ./internal/sim/... ./internal/proc/... ./internal/mesh/... ./internal/machine/... ./internal/memtier/... ./internal/sweep/... ./internal/litmus/...

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

# sweep-smoke exercises the sweep orchestrator end to end: the determinism
# and crash-resume suites, then the swex CLI cold and warm over one cache
# directory, on a figure and two ablations (one with check-in annotations,
# one with a block-by-block protocol region), with the journal summarized
# and compacted in between — on the warm runs every exhibit's line and the
# closing total must report zero executed simulations.
SMOKE_MATRICES = fig2 ablate-cico ablate-dataspec
ALL_WARM = awk '/^swex: 0 simulation\(s\) executed / {next} / executed,/ {n++} !/ 0 executed,/ {bad=1} END {exit bad || n != 3}'
sweep-smoke:
	$(GO) test ./internal/sweep/ -run 'TestCrashResume|TestCacheRoundTrip|TestCompact' -count=1
	$(GO) test . -run 'TestSweepOutputDeterministic|TestSharedBaselineComputedOnce' -count=1
	d=$$(mktemp -d) && \
	  $(GO) run ./cmd/swex -quick -workers 4 -cache $$d $(SMOKE_MATRICES) >/dev/null && \
	  $(GO) run ./cmd/swex -quick -workers 4 -cache $$d $(SMOKE_MATRICES) 2>&1 >/dev/null | $(ALL_WARM) && \
	  $(GO) run ./cmd/swex -status -cache $$d >/dev/null && \
	  $(GO) run ./cmd/swex -cache $$d compact >/dev/null && \
	  $(GO) run ./cmd/swex -quick -workers 4 -cache $$d $(SMOKE_MATRICES) 2>&1 >/dev/null | $(ALL_WARM) && \
	  rm -rf $$d

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

# trace-smoke exercises the tracing pipeline end to end: a traced run must
# export, export deterministically, and round-trip the profile view. The
# per-package tests assert the details; this is the `make check` wiring.
trace-smoke:
	$(GO) test ./internal/trace/
	$(GO) run ./cmd/swextrace -worker 4 -iters 2 -nodes 4 -protocol h2 -o /tmp/swextrace-smoke.json
	$(GO) run ./cmd/swextrace profile -worker 4 -iters 2 -nodes 4 -protocol h2 >/dev/null

# bench-smoke runs every perfbench workload for one second and requires
# each run's last line to report "correct":true and "failed":0. That puts
# the benchmark's gate in CI: every simulated result is checked against
# the committed fingerprints, and a machine that drops an invalidation
# (the LoseInv negative control) must be caught. Timings are not judged.
BENCH_WORKLOADS = tsp256-fullmap worker64-h0 litmus-campaign mc-2n2b-h5
bench-smoke:
	@for w in $(BENCH_WORKLOADS); do \
	  last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
	  echo "$$w: $$last"; \
	  echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -Eq '"failed":0[,}]' || \
	    { echo "bench-smoke: $$w did not pass its gate" >&2; exit 1; }; \
	done

check: vet lint test race mc-smoke mc-por-smoke trace-smoke sweep-smoke fuzz-smoke memtier-smoke
