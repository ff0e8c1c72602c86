#!/usr/bin/env bash
# The perf gate: judges the working tree against a base commit on the root
# benchmarks of the gated set. Run it from anywhere in the repository, in
# CI and locally alike:
#
#   ci/perf_gate.sh BASE        # e.g. origin/main, HEAD^ or a commit hash
#
# It builds the root package's test binary at BASE, extracted with git
# archive into a temporary directory, and at the working tree. It runs the
# gated benchmarks in 5 alternating pairs, each run a fresh process, so
# both sides see the machine's drift alike, and diffs the two sides' runs
# with the bench gate (ci/bench_gate.go): more than +25 % median ns/op or
# allocs/op, a changed engine counter, or a benchmark of BASE missing from
# the change fails. Benchmarks BASE lacks pass as new. The raw go test
# output of each side stays in bench-base.txt and bench-change.txt in the
# repository root.
set -euo pipefail

base=$(git rev-parse --verify "${1:?usage: ci/perf_gate.sh BASE}^{commit}")
cd "$(git rev-parse --show-toplevel)"

# The gated set: one root benchmark per record the gate keeps
# (docs/OPERATIONS.md maps the records of BENCH_PR30.json to them).
gated='^(BenchmarkCountingDense|BenchmarkCountingDenseWarm|BenchmarkCountingDenseSharded|BenchmarkAnchoredTopK|BenchmarkAnchoredTopKRootTriples|BenchmarkCountingSynthetic|BenchmarkCountingSyntheticWarm|BenchmarkColdPrepare|BenchmarkServeCacheHit|BenchmarkClusterMine)$'
pairs=5

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/change.test" .

# bench SIDE DIR runs SIDE's binary once in DIR, its package directory, and
# appends its output to bench-SIDE.txt.
bench() {
	echo "perf gate: pair $i/$pairs, $1" >&2
	(cd "$2" && "$work/$1.test" -test.run='^$' -test.bench="$gated" -test.benchmem -test.timeout=10m) >>"bench-$1.txt"
}
: >bench-base.txt
: >bench-change.txt
start=$SECONDS
for i in $(seq "$pairs"); do
	# Alternate which side runs first, so neither always follows the other.
	if ((i % 2)); then
		bench base "$work/base"
		bench change .
	else
		bench change .
		bench base "$work/base"
	fi
done
echo "perf gate: $pairs pairs of runs of $(git rev-parse --short "$base") and the working tree in $((SECONDS - start)) s" >&2
go run ./ci -baseline bench-base.txt -current bench-change.txt
