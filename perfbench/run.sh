#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload cache-batch --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build cache, binary and span files go to
# .bench_build/ under the current directory, so nothing is written outside
# the checkout. The build needs the vqf module one directory up; without it
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
