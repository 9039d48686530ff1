#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, e.g.
#   bash perfbench/run.sh --workload daq-tree --seed 1 --seconds 10 --trace 0
# Run from the repository root.  Everything the build writes (binary, Go
# build cache, temp files) stays under .bench_build in the current
# directory; build output goes to stderr so the result stays the last
# line of stdout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
