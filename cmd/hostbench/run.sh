#!/usr/bin/env bash
# Builds cmd/hostbench from the checkout it is run in and runs one
# workload with the flags BENCHMARK.json's command takes:
#
#   bash cmd/hostbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary, Go's build cache and Go's
# own config and telemetry files go under .bench_build, so nothing is
# written outside the checkout. Other flags pass through to hostbench.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "run.sh: go.mod and internal/ not found; run from the repository root" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/hostbench" ./cmd/hostbench

args=()
while [[ $# -gt 0 ]]; do
	case "$1" in
	--trace | -trace)
		[[ $# -ge 2 ]] || { echo "run.sh: $1 needs 0 or 1" >&2; exit 2; }
		args+=("-trace=$2")
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$out/hostbench" "${args[@]}"
