#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload regen --seed 1 --seconds 38 --trace 0
#
# Everything the build leaves behind (the Go build cache, temp files, the go
# command's config and telemetry, and the binary) stays under .bench_build/
# in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
XDG_CONFIG_HOME="$out/config" go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out" "$@"
