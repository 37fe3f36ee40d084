#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every build and run
# artifact stays under .bench_build/perfbench in the checkout.
#
#   bash perfbench/run.sh --workload shared-hot --seed 1 --seconds 40 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
