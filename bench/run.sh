#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write (Go build cache,
# binary, .iol files of set-up) goes under .bench_build/ at the checkout
# root, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/iolap-bench" .)

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$build/iolap-bench" -workdir "$build/tmp" -commit "$commit" "$@"
