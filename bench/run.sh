#!/usr/bin/env bash
# Builds the benchmark and the serving daemons (subserve, subgate) from the
# checkout it is run in, then runs one workload. Run it from the repository
# root:
#
#   bash bench/run.sh --workload extract-bem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, and per-run output (daemon
# logs, artifacts, the Chrome trace of a traced run). Build output goes to
# standard error; the last line of standard output is the result JSON.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

# Keep the toolchain off the network and its caches, temporary files and
# telemetry inside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$build/bin/" ./cmd/subserve ./cmd/subgate >&2
(cd "$root/bench" && go build -o "$build/bin/bench" .) >&2

exec "$build/bin/bench" -bin "$build/bin" -out "$build/out" "$@"
