#!/usr/bin/env bash
# Builds the benchmark and the pipethermd daemon from the checkout's
# sources, then runs the benchmark from the checkout root. Every build
# artifact, the Go build cache and all scratch files stay under
# .bench_build in the checkout.
#
#   bash e2ebench/run.sh --workload fig6_matrix --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local
go build -o "$out/pipethermd" ./cmd/pipethermd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --daemon "$out/pipethermd" --scratch "$out" "$@"
