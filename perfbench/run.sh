#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives from this checkout's source,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

work="$(pwd)/.bench_build/perfbench"
mkdir -p "$work/bin" "$work/tmp" "$work/config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(
	cd perfbench
	go build -o "$work/bin/perfbench" .
	go build -o "$work/bin/dashserver" bba/cmd/dashserver
	go build -o "$work/bin/bbacollect" bba/cmd/bbacollect
) >&2

exec "$work/bin/perfbench" -bin "$work/bin" -work "$work" "$@"
