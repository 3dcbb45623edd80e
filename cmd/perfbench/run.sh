#!/usr/bin/env bash
# Builds the benchmark driver and the trikcore server from source into
# .bench_build/ at the repository root, then runs the driver with the
# given arguments (--workload, --seed, --seconds, --trace). Every file
# the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
(cd cmd/perfbench && go build -o "$build/perfbench" . && go build -o "$build/trikcore" trikcore/cmd/trikcore)
exec "$build/perfbench" -root "$root" "$@"
