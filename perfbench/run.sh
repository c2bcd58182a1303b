#!/usr/bin/env bash
# Builds the service benchmark from source and runs it. Run it from the
# repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload warm-repeat --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own
# configuration and telemetry directory go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

here="$(cd "$(dirname "$0")" && pwd)"
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
