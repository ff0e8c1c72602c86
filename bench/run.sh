#!/usr/bin/env bash
# Builds the benchmark and the flipper CLI from the checkout it is started
# in, then runs one benchmark workload. Run it from the repository root:
#
#   bash bench/run.sh --workload explore-synth --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/
# in the checkout: the Go build cache, the binaries, the generated inputs
# (removed when the run ends) and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$out/bin/flipload" .)
(cd "$root" && go build -o "$out/bin/flipper" ./cmd/flipper)
exec "$out/bin/flipload" -root "$root" -flipper "$out/bin/flipper" "$@"
