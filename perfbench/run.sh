#!/usr/bin/env bash
# Builds jsinfer, jsinferd and the perfbench binary from the checkout in
# the current directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload tweets-file --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write goes under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/jsinferd ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
mkdir -p "$build/bin" "$build/tmp"
go build -o "$build/bin/" ./cmd/jsinfer ./cmd/jsinferd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" "$@"
