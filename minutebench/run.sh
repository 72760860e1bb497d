#!/usr/bin/env bash
# Builds the control-loop minute benchmark from the sources of the
# checkout it is run in, then runs it with the given arguments:
#
#   bash minutebench/run.sh --workload fleet-1k-storm --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Build output, the Go build cache and
# the benchmark's temporary files all stay under .bench_build/ there.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/minutebench" .) >&2
exec "$out/minutebench" "$@"
