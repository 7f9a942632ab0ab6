#!/usr/bin/env bash
# Builds wbist-bench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh -seed 2                  # all four workloads
#   bash benchmark/run.sh --workload compile-stuck --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh compare runsA runsB
#
# The benchmark is a module of its own (benchmark/go.mod), so the
# repository's `go build ./...` and `go test ./...` leave it out. The Go
# build cache, the binary and every temporary file stay under .bench_build/
# (or $CARGO_TARGET_DIR when set), so nothing is written outside the
# checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME holds the go command's own telemetry counters.
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/wbist-bench" .)
exec "$build/wbist-bench" "$@"
