#!/usr/bin/env sh
# The traffic census a simplicity PR quotes: the functions of the serving
# and adaptation packages that none of the benchmark's four workloads
# executes. It runs bench's workload smoke test (all four BENCHMARK.json
# workloads at smoke scale) and the adapt_drift determinism test under
# coverage of ./internal/..., then lists every function in
# internal/{serve,wire,query,obs,resilience,warper,annotator,ce,nn} at 0.0 %.
# A function on this list runs only under tests, or not at all — the
# evidence a "second path" trial should start from. The last line is the
# count CHANGES.md and ROADMAP.md quote. About 15 s.
#
#	scripts/traffic.sh                  # this checkout
#	scripts/traffic.sh /path/to/parent  # another one (a clone of the parent commit)
set -eu
cd "${1:-$(dirname "$0")/..}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -count=1 -run 'TestWorkloadsSmoke|TestAdaptDriftDeterministic' \
	-coverpkg=./internal/... -coverprofile="$tmp/cover.out" ./bench >/dev/null
go tool cover -func="$tmp/cover.out" |
	awk '$NF == "0.0%" && $1 ~ /^warper\/internal\/(serve|wire|query|obs|resilience|warper|annotator|ce|nn)\// {
		sub(/^warper\//, "", $1)
		printf "%-50s %s\n", $1, $2
		n++
	}
	END { printf "%d functions at 0.0 %%\n", n }'
