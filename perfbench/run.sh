#!/usr/bin/env bash
# Builds the KV benchmark from the sources of this checkout and runs it.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload write --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout, and the build never fetches modules.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
