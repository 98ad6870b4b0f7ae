#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash nbhdbench/run.sh --workload survey --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, traces and study artifacts all stay
# under .bench_build/ at the root.
set -euo pipefail
out="$(pwd)/.bench_build/nbhdbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd nbhdbench && go build -o "$out/nbhdbench" .)
exec "$out/nbhdbench" --work-dir "$out" "$@"
