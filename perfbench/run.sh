#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Build outputs stay under .bench_build at the repo root.
# The benchmark runs pinned to the first CPU it may use (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" # keeps the go command's own files here too
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
if cpus="$(taskset -pc $$ 2>/dev/null)"; then
	cpu="${cpus##*: }"
	exec taskset -c "${cpu%%[,-]*}" "$build/perfbench" "$@"
fi
exec "$build/perfbench" "$@"
