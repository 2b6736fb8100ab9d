#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash pipebench/run.sh --workload scale-100k --seed 2003 --seconds 15 --trace 0
#
# The binary, the Go build cache, temporary files and any toolchain state go
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so a
# run reads and writes nothing outside it. The build fails, and the script exits
# non-zero without printing a result, when the module it benchmarks is not
# next to pipebench/.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

(cd "$root/pipebench" && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
