#!/usr/bin/env bash
# Builds the benchmark and the qbpartd daemon from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload paper-t3 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes to .bench_build/ at the root
# of the checkout (the Go build cache included), so a run touches nothing
# outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
(cd "$root" && go build -o "$out/bin/qbpartd" ./cmd/qbpartd) >&2

exec "$out/bin/perfbench" -daemon "$out/bin/qbpartd" -out "$out/traces" "$@"
