#!/usr/bin/env bash
# Tier-2 benchmarks. Two suites:
#
#   bench.sh micro  [...]   compute-core micro-benchmarks (nn train step,
#                           gbt fit, kernel solve, one adaptation period)
#                           → BENCH_PR4.json
#   bench.sh serve  [...]   concurrent /estimate serving benchmark: 8
#                           clients against the single-lock baseline and
#                           the replica pool, every answer checked
#                           byte-identical
#                           → BENCH_PR5.json
#   bench.sh overload [...] overload acceptance: open-loop load at 2x
#                           measured saturation through admission control,
#                           the health machine and the fallback ladder
#                           → BENCH_PR8.json
#   bench.sh zipf   [...]   estimate-cache benchmark: Zipf(1.1)-skewed
#                           template workload against the cached and
#                           uncached server (1-CPU and GOMAXPROCS=2),
#                           hit/miss/invalidate micros, zero-alloc hit
#                           assert, byte-identity across a mid-run swap
#                           → BENCH_PR9.json
#   bench.sh wire   [...]   binary-protocol benchmark: the columnar
#                           /estimate/batch endpoint against scalar JSON
#                           over HTTP (uncached), zero-alloc batch assert,
#                           a GOMAXPROCS>=4 multi-core pass, byte-identity
#                           across a mid-run swap
#                           → BENCH_PR10.json
#
# With no suite argument, micro runs (the historical default). Remaining
# arguments pass through: -quick for the CI smoke variant, -out for the
# output path.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=-micro
case "${1:-}" in
micro)
	shift
	;;
serve)
	mode=-servebench
	shift
	;;
overload)
	mode="-servebench -overload"
	shift
	;;
zipf)
	mode="-servebench -zipf 1.1"
	shift
	;;
wire)
	mode="-servebench -binary"
	shift
	;;
esac
# shellcheck disable=SC2086 # mode is intentionally word-split (flag list)
exec go run ./cmd/warperbench $mode "$@"
