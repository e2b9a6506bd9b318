#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root; arguments go to the benchmark, for example:
#
#	bash perfbench/run.sh --workload zipf-http --seed 1 --seconds 30 --trace 0
#
# The binary, the Go caches, the toolchain's own state files and the span
# files all stay under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home"
gobuild() {
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= \
		go build -C perfbench -o "$build/perfbench" "$@" . >&2
}
# VCS stamping records the commit in the run envelope; outside a usable git
# checkout the build goes on without it.
gobuild || gobuild -buildvcs=false
exec "$build/perfbench" "$@"
