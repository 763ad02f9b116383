#!/usr/bin/env bash
# Builds the end-to-end benchmark and pvcd from source, then runs the
# benchmark. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload cluster-sweeps --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and every scratch file stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/e2ebench" . && go build -o "$out/pvcd" pvcsim/cmd/pvcd) >&2

exec "$out/e2ebench" -root "$root" -refs "$here/refs" -tmp "$out/tmp" -pvcd "$out/pvcd" "$@"
