#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload local-secretary --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh -compare parent-results/ change-results/
#
# Every file the Go toolchain and the benchmark write (build cache, temporary
# files, the durable store of store-update) stays under .bench_build/ in the
# current directory, and nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
