#!/usr/bin/env bash
# Builds simbench from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash simbench/run.sh --workload benign --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary, scratch caches and trace artifacts.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/simbench/go.mod" ]]; then
	echo "simbench: run from the repository root (needs go.mod, internal/ and simbench/)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# Stamping the git revision needs a working git; without one, build unstamped.
go -C simbench build -o "$out/simbench" . 2>/dev/null ||
	go -C simbench build -buildvcs=false -o "$out/simbench" .
exec "$out/simbench" -work "$out" "$@"
