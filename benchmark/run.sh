#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: run from the root of a checkout as
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the Go toolchain writes (build cache, scratch space) goes to
# .bench_build/ inside the checkout; the benchmark's own logs and traces go
# to benchmark/out/.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/itdos-cluster" ]; then
  echo "benchmark/run.sh: run from the root of an ITDOS checkout (no go.mod / cmd/itdos-cluster here)" >&2
  exit 2
fi
# The go command keeps its build cache, its scratch space and (in the
# default "local" telemetry mode) its counters under the user's home; send
# all three into the checkout, and keep reading the user's go env file.
GOENV=$(go env GOENV)
export GOENV
export GOCACHE="$root/.bench_build/go-cache"
export GOTMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"
exec go run -C "$root/benchmark" . "$@"
