#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and every data
# directory the benchmark writes stay under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/server || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root; go.mod and internal/ are missing here" >&2
	exit 2
fi
root="$PWD/.bench_build"
mkdir -p "$root/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
export GOCACHE="$root/go-cache" GOPATH="$root/gopath" GOTMPDIR="$root/tmp" TMPDIR="$root/tmp"
go build -o "$root/perfbench" ./perfbench
exec "$root/perfbench" --work-dir "$root" "$@"
