#!/usr/bin/env bash
# Builds the benchmark and the servers it launches, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload ask-hot --seed 1 --seconds 10 --trace 0
#
# Every Go cache, build output and temporary file goes under
# .bench_build in the current directory, so a run reads and writes
# nothing outside the checkout it starts in.
set -euo pipefail

if [[ ! -f go.mod || ! -d bench ]]; then
	echo "bench/run.sh: run from the repository root (no go.mod here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

go build -o "$out/bin/" ./bench ./cmd/websimd ./cmd/llmstub
exec "$out/bin/bench" -bin "$out/bin" "$@"
