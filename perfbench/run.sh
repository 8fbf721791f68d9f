#!/usr/bin/env bash
# Builds the femtocr end-to-end benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a femtocr checkout. Everything the build and the
# run write stays under .bench_build/ in that checkout: the Go build cache,
# the binary, and the span dumps of traced runs. The benchmark module
# (perfbench/go.mod) reaches the simulator through `replace femtocr => ../`,
# so a directory holding only the benchmark fails to build and exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
