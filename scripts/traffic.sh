#!/usr/bin/env sh
# The traffic census a simplicity PR quotes: the functions of internal/ that
# neither the benchmark's four workloads nor the paper harness executes. One
# coverage run of ./internal/... covers bench's workload smoke test (all four
# BENCHMARK.json workloads at smoke scale), the adapt_drift determinism test
# and TestAllExperimentsSmoke (every paper experiment at quick scale), then
# lists every function of every internal/ package except lint (the analyzer
# runs on source, not in the system) and experiments (the harness itself) at
# 0.0 %. A function on this list runs only under tests, or not at all — the
# evidence a "second path" trial should start from. The last line is the
# count CHANGES.md and ROADMAP.md quote. About 20 s on a 2-vCPU host.
#
#	scripts/traffic.sh                  # this checkout
#	scripts/traffic.sh /path/to/parent  # another one (a clone of the parent commit)
set -eu
cd "${1:-$(dirname "$0")/..}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Quiet on success; a red coverage run prints go test's output and stops the
# census, since a failed test leaves the profile short of what it executes.
if ! go test -count=1 -run '^(TestWorkloadsSmoke|TestAdaptDriftDeterministic|TestAllExperimentsSmoke)$' \
	-coverpkg=./internal/... -coverprofile="$tmp/cover.out" ./bench ./internal/experiments >"$tmp/test.out" 2>&1; then
	cat "$tmp/test.out" >&2
	echo "traffic.sh: the coverage run failed; no census" >&2
	exit 1
fi
go tool cover -func="$tmp/cover.out" |
	awk '$NF == "0.0%" && $1 ~ /^warper\/internal\// && $1 !~ /^warper\/internal\/(lint|experiments)\// {
		sub(/^warper\//, "", $1)
		printf "%-50s %s\n", $1, $2
		n++
	}
	END { printf "%d functions at 0.0 %%\n", n }'
