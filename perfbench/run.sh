#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with the
# given arguments:
#
#   bash perfbench/run.sh --workload cycle --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and the go command's own state, trace
# files and the heartbeat workload's store all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 1
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gotmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" -out "$out" "$@"
