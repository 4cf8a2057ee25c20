#!/usr/bin/env bash
# Builds the kvbench binary from the checkout it sits in and runs it with the
# given arguments. Every build artefact (Go build cache, binary, span dumps)
# goes under $CARGO_TARGET_DIR (default .bench_build) in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/kvbench" && go build -o "$out/kvbench" .) >&2
cd "$root"
exec "$out/kvbench" --spans-dir "$out" "$@"
