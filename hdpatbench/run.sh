#!/usr/bin/env bash
# Builds hdpatd and the benchmark from the checkout's source, then runs the
# benchmark with the given arguments. Run from the root of a checkout:
#
#   bash hdpatbench/run.sh --workload table2-sweep --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and result stays under .bench_build/ in the
# checkout. The build fails, and the script exits nonzero without a
# result, when the checkout lacks the simulator's source.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/bin"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOMODCACHE="${build}/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "${build}/bin/hdpatd" ./cmd/hdpatd
(cd hdpatbench && go build -o "${build}/bin/hdpatbench" .)
commit=unknown
if [[ -e "${root}/.git" ]]; then
  commit="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "${build}/bin/hdpatbench" -hdpatd "${build}/bin/hdpatd" -commit "${commit}" "$@"
