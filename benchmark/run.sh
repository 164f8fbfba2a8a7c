#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (Go's build cache included)
# goes under .bench_build in the current directory, everything the run
# writes under this directory's out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/dasbench" .)
exec "$build/dasbench" -out "$here/out" -manifest "$here/../BENCHMARK.json" "$@"
