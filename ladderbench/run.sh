#!/usr/bin/env bash
# Builds ladderbench from source and runs it with the given arguments,
# e.g. bash ladderbench/run.sh --workload unicast-rpc --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, data directories, span files) goes
# under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/ladderbench" .)
exec "$out/ladderbench" -dir "$out" "$@"
