#!/usr/bin/env bash
# Builds questbench and questd from this checkout, then runs one workload:
#
#   bash questbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Everything the build and the run
# write stays under .bench_build/ in the checkout: the Go build cache, the
# two binaries, questd's data directories and the traced run's spans. The
# run pins GOMAXPROCS to 2, the thread limit every workload is measured at.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOMAXPROCS=2

# The module in questbench/ replaces repro with the checkout root, so the
# build fails (and the run exits non-zero) when the repository's sources
# are not next to it.
(cd "$root/questbench" && go build -o "$build/bin/questbench" .) >&2
go build -o "$build/bin/questd" ./cmd/questd >&2

exec "$build/bin/questbench" --root "$root" --questd "$build/bin/questd" "$@"
