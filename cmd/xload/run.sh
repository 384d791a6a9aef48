#!/usr/bin/env bash
# Builds cmd/xload from the checkout it sits in and runs it with the given
# arguments, e.g.
#
#   bash cmd/xload/run.sh --workload path-setA --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product (binary, Go build
# cache, spans of traced runs) stays under $CARGO_TARGET_DIR, default
# .bench_build, so a run reads and writes only inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/xload" .) >&2
exec "$out/xload" -spans "$out/spans.json" "$@"
