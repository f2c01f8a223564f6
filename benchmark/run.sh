#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload day-mix --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ in the current directory. Outside a full checkout (no
# repository module next to benchmark/) the build fails and so does this
# script, before anything is printed on standard output.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C benchmark build -o "$out/cinder-bench" .
exec "$out/cinder-bench" "$@"
