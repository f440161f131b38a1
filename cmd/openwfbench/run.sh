#!/usr/bin/env bash
# Builds openwfbench from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the directory the script is started from, so a run
# reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/openwfbench" .)
exec "$out/openwfbench" "$@"
