#!/usr/bin/env bash
# Builds coopserve and the end-to-end benchmark from this checkout and runs
# the benchmark with the given flags. Run it from the repository root:
#
#   bash bench/e2e/run.sh --workload catalog-hot --seed 1 --seconds 30 --trace 0
#
# Without --workload it runs all four workloads. Everything it builds or
# writes, including the Go build cache, stays under .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/coopserve ] || [ ! -f bench/e2e/go.mod ]; then
	echo "run.sh: run from the repository root (go.mod, cmd/coopserve and bench/e2e are missing here)" >&2
	exit 2
fi

out=.bench_build
root=$(pwd)
mkdir -p "$out/tmp"
export GOCACHE="$root/$out/gocache" GOMODCACHE="$root/$out/gomodcache" GOTMPDIR="$root/$out/tmp" \
	XDG_CONFIG_HOME="$root/$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/coopserve" ./cmd/coopserve
(cd bench/e2e && go build -o "$root/$out/e2e" .)
exec "$out/e2e" -server "$out/coopserve" "$@"
