#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload tsp256-fullmap --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
commit=none
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git rev-parse HEAD)$(git diff --quiet HEAD 2>/dev/null || echo -dirty)
fi
(cd "$root/perfbench/_bench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
