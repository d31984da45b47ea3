#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments (see perfbench/NOTES.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1-behav --seed 1 --seconds 30 --trace 0
#
# Every build artefact and Go cache stays under .bench_build/ in the
# current directory, so the run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root is not the repository root (no go.mod or internal/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench/pfbench" .
exec "$build/perfbench/pfbench" "$@"
