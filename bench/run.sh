#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# (build cache included, so nothing is written outside the checkout) and
# runs it with the arguments given:
#
#   bash bench/run.sh --workload tree_mix --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off
(cd "$here" && go build -o "$build/stackbench" .)
cd "$root"
exec "$build/stackbench" "$@"
