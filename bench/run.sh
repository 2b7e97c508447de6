#!/usr/bin/env bash
# Builds the teledrive benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload paper-campaign --seed 4 --seconds 20 --trace 0
#   bash bench/run.sh -compare old.jsonl new.jsonl
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

(
	cd "$(dirname "${BASH_SOURCE[0]}")"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off \
		go build -o "$out/bench" .
)
exec "$out/bench" "$@"
