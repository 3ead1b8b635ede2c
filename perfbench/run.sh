#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 16 --trace 0
#   bash perfbench/run.sh --selftest
#
# Everything the build and the run write (Go build cache, binary, traced
# spans) stays under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/perfbench"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --outdir "$out/perfbench" "$@"
