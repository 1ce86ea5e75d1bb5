#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 32 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
