#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags.
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|FILE]
#
# The benchmark must read and write only inside its checkout, so the Go
# build cache, the home and temporary directories the toolchain writes to,
# and the binary all live in .bench_build at the repository root. The
# toolchain stays offline: the module needs nothing outside the repository.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
