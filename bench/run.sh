#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it; every argument is
# passed through:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary and everything the Go tool writes (build cache, module cache,
# its own configuration directory) live in .bench_build/ at the root of the
# checkout, so nothing is written outside it. In a directory without the
# repository's go.mod and internal/ the build fails and the script exits
# non-zero before anything runs.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
(cd "$root/bench" && GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= go build -o "$out/azbench" .)
cd "$root"
exec "$out/azbench" "$@"
