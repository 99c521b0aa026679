#!/usr/bin/env bash
# Builds the Crowd-ML session benchmark from the sources of the checkout it
# sits in, then runs it from the checkout root:
#
#   bash crowdbench/run.sh --workload mnist-json-durable --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, session stores,
# profiles) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/crowdbench" .)
cd "$root"
exec "$out/crowdbench" -workdir "$out" "$@"
