#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build and the run write — the Go
# build cache, temporary files, the binary, spill logs — stays under
# .bench_build at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$build/tmp"

(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
	go build -o "$build/diesel-bench" .
)

exec "$build/diesel-bench" -dir "$build/run" "$@"
