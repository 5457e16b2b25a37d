#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it from the
# checkout root, passing every argument through:
#
#   bash bench/run.sh --workload cold-solve --seed 1 --seconds 15 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the root, so a
# run reads and writes nothing outside the checkout except the Go toolchain.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .) >&2

cd "$root"
exec "$out/bench" "$@"
