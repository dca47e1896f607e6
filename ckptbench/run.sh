#!/usr/bin/env bash
# Builds the checkpoint benchmark from this checkout's sources and runs
# it. Run from the repository root, for example:
#
#   bash ckptbench/run.sh --workload daemon-long-chain --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache and settings, the binary and
# the run's temporary stores.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/.." && pwd)"
out="$repo/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
# Telemetry off: the go command then writes no counters and starts no
# background upload process that could outlive the run.
go telemetry off
(cd "$here" && go build -o "$out/ckptbench" .)
cd "$repo"
exec "$out/ckptbench" --tmp "$out/tmp" "$@"
