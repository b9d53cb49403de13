#!/usr/bin/env bash
# Builds pprprecomp, pprserve and the benchmark from source, then runs the
# benchmark with the given flags. Run it from the repository root:
#
#   bash gwbench/run.sh --workload read-mem --seed 1 --seconds 10 --trace 0
#
# Everything it writes (binaries, the Go build cache, working files,
# traces) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/" ./cmd/pprprecomp ./cmd/pprserve >&2
(cd gwbench && go build -o "$out/bin/gwbench" .) >&2
exec "$out/bin/gwbench" -bin "$out/bin" "$@"
