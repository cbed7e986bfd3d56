#!/usr/bin/env bash
# Builds the benchmark program (samrperf) and cmd/samrd from the
# checkout it is run in, then runs samrperf with the given arguments.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload regrid-stream --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes (binaries, the Go build cache, run
# directories, span files) lands under ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"

# Keep the Go toolchain's caches and config inside the build directory
# and never reach for a module proxy: the module has no external deps.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$out/bin/samrperf" . && go build -o "$out/bin/samrd" samr/cmd/samrd) >&2
exec "$out/bin/samrperf" -samrd "$out/bin/samrd" -work "$out" "$@"
