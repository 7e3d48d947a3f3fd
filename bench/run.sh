#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; every argument
# is passed through (see bench/README.md). Run from the repository root:
#
#   bash bench/run.sh --workload heap --seed 1 --seconds 15 --trace 0
#
# The build cache, module cache and Go's own config directory all live
# under .bench_build/ at the repository root, so the benchmark reads and
# writes nothing outside the checkout besides the Go toolchain itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C "$root/bench" build -o "$out/exbench" .
exec "$out/exbench" "$@"
