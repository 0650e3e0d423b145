#!/usr/bin/env bash
# Builds the live paper-workload benchmark from the surrounding checkout and
# runs it with the given arguments, e.g.
#
#   bash livebench/run.sh --workload hotcold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary) goes
# under .bench_build in the checkout root (or $CARGO_TARGET_DIR if set).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd livebench && go build -o "$out/livebench" .)
exec "$out/livebench" "$@"
