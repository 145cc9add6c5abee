#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload table1-fc --seed 1 --seconds 12 --trace 0
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build in the directory it is started from, which must be the
# repository root. Outside a full checkout (no ../go.mod next to this
# directory) the build fails and the script exits nonzero without a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
