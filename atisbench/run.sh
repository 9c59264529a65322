#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash atisbench/run.sh --workload ch-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes — the Go
# build cache, the binary, the traced run's spans — stays under
# .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

(cd "$(dirname "$0")" && go build -o "$out/atisbench" .)
exec "$out/atisbench" "$@"
