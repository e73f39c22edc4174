#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload certify|bigrun|jobs|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, spill runs and span
# files. The benchmark runs with GOMAXPROCS equal to the number of CPUs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOMAXPROCS="$(nproc)"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
