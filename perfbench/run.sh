#!/usr/bin/env bash
# Builds the ntisim benchmark from the checkout's sources and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload lan32 --seed 1998 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, the binary, and the traced run's spans and CPU
# profiles. GOPROXY=off and GOTOOLCHAIN=local keep the build offline.
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
