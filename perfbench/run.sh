#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# under .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
