#!/usr/bin/env bash
# Runs the end-to-end benchmark from the root of a source checkout:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the server and the load generator from source into
# .bench_build/ (Go's build cache included, so nothing is written outside
# the checkout), then runs the generator, which starts and stops the
# server itself. See e2ebench/README.md.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/trace" "$build/capture" "$build/home"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$here" && go build -o "$build/bin/" ./gen ./server) >&2
exec "$build/bin/gen" --server "$build/bin/server" --trace-dir "$build/trace" --capture-dir "$build/capture" "$@"
