#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout: every build product, cache and
# temporary file goes to .bench_build/ there, and nothing outside the
# checkout is written.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/affinitybench" ./cmd/affinitybench)
exec "$out/affinitybench" -workdir "$out/tmp" -spans "$out/spans.jsonl" "$@"
