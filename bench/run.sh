#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it with the given arguments. Everything the build and the run write stays
# inside the checkout: the Go build cache, module cache and the toolchain's
# telemetry counters (under the user config directory) are redirected there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/dyndens-bench" .) >&2
cd "$root"
exec "$build/dyndens-bench" "$@"
