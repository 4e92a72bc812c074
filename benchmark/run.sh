#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload mpc-dense --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# generated input stay under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go -C "$here" build -o "$out/mwvc-benchmark" .
exec "$out/mwvc-benchmark" "$@"
