#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload kv-point --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write — the Go build cache, the
# binary, spans, CPU profiles and per-run summaries — stays under
# .bench_build/ in the working directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
