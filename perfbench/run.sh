#!/usr/bin/env bash
# Builds thermserved and the benchmark driver from the sources of the
# checkout it runs in, then runs the driver. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tournament --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binaries, the servers' temporary data directories and the run records.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin"

# No network and no writes outside the build directory: the toolchain may not
# switch versions or fetch modules, and its cache, configuration and
# telemetry files land under $build.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache

go build -o "$build/bin/thermserved" ./cmd/thermserved >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" -build "$build" "$@"
