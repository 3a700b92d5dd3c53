#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# it; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload bsg1-peel --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and tool configuration all live under
# .bench_build/ at the root of the tree, so nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
