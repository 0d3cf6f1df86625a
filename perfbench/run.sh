#!/usr/bin/env bash
# Builds the smtfetch benchmark from source and runs it. Run from the root
# of a smtfetch checkout:
#
#   bash perfbench/run.sh --workload sweep_full --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, traces and profiles) stays under .bench_build in the
# checkout, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config" "$build/out"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export PPROF_TMPDIR="$build/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export PERFBENCH_OUT="$build/out"

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
