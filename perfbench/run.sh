#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run it from the
# root of a sepsp checkout, for example:
#
#   bash perfbench/run.sh --workload uniform-closed --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, binary,
# its own config) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
