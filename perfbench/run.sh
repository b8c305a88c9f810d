#!/usr/bin/env bash
# Builds and runs the host-cost benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig4-quick --seed 0 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, the CPU profile and the spans. The go command never reaches the
# network: the benchmark module depends only on the repository's own
# module, through a replace directive.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/home"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build/perfbench-out" "$@"
