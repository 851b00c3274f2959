#!/usr/bin/env bash
# Builds the gpurel benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload inject-single --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and the Go build cache go
# under $CARGO_TARGET_DIR (default .bench_build), so the build reads and
# writes only inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the gpurel repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/modcache GOTMPDIR=$out/tmp \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export BENCH_OUT=$out
(cd perfbench && go build -o "$out/gpurel-bench" .)
exec "$out/gpurel-bench" "$@"
