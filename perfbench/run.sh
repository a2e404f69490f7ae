#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-run --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binary, temp dirs, span
# files) stays under $CARGO_TARGET_DIR (default .bench_build) in the
# checkout.  Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	XDG_CACHE_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off
commit="unknown"
if rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null)"; then
	commit="$rev"
fi
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" -build-dir "$out" -commit "$commit" "$@"
