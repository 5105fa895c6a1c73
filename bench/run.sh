#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed through (see bench/README.md). Run from the repository
# root. The build cache, the binary and the spans file live under
# .bench_build, so the benchmark writes nothing outside the checkout.
set -eu
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/spt-bench" .) >&2
exec "$out/spt-bench" "$@"
