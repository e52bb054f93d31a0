#!/usr/bin/env bash
# Builds qpredictd and the benchmark from the checkout in the current
# directory, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload predict-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/qpredictd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/qpredictd" ./cmd/qpredictd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
