#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, module
# cache, temp files, telemetry) is kept under .bench_build in the checkout.
#
#   bash benchmark/run.sh --workload hit_read_8k --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

V3BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export V3BENCH_COMMIT

(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
		GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -buildvcs=false -o "$build/v3bench" .
)

cd "$root"
exec "$build/v3bench" "$@"
