#!/usr/bin/env bash
# Builds the serving benchmark from the source in this checkout and runs
# it with the given arguments, e.g.
#
#   bash servebench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, the servers' state and the
# traced run's span files.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" ]]; then
	echo "servebench: run from the root of a graphsig checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOTELEMETRY=off \
	GOTELEMETRYDIR="$build/telemetry" GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/servebench" ./servebench
exec "$build/servebench" "$@"
