#!/usr/bin/env bash
# Builds ccserve and the benchmark harness from this checkout, then runs the
# harness with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 8 --trace 0
#
# Every build output, cache and data dir stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ccserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ccserve and perfbench/ are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/ccserve" ./cmd/ccserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ccserve "$out/ccserve" -work "$out/work" "$@"
