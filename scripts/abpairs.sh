#!/usr/bin/env bash
# A/B-compare one Go benchmark between a git ref and the working tree in
# alternating pairs from prebuilt binaries, the way ROADMAP's benchmark
# discipline asks:
#
#   scripts/abpairs.sh <ref> <pkg> <bench-regex> [pairs]
#   scripts/abpairs.sh HEAD~1 ./internal/warper BenchmarkAEStep 10
#
# <ref> is extracted with git archive into a mktemp -d directory and both
# trees are compiled once with go test -c. Each pair then runs the ref's
# binary and the tree's binary back to back, each in its own tree's package
# directory, and prints both ns/op and the pair's speedup ref/tree; the end
# prints the median and interquartile range of each column. When the regex
# matches several benchmarks, each side's first result line is the one
# compared (its name is printed), so a regex that selects a benchmark in the
# ref and its sub-benchmarks in the tree compares it with the first of them.
# BENCHTIME (default 1s) is passed to -test.benchtime. Binaries and the
# extracted tree live in the temporary directory, which is removed on exit;
# nothing is written inside the checkout.
set -euo pipefail
[ $# -ge 3 ] && [ $# -le 4 ] || { echo "usage: $0 <ref> <pkg> <bench-regex> [pairs]" >&2; exit 2; }
ref=$1 pkg=$2 re=$3 pairs=${4:-10}
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && go test -c -o "$tmp/ref.test" "$pkg")
go test -c -o "$tmp/tree.test" "$pkg"

# run BINARY DIR prints "name ns/op" for the binary's first result line.
run() {
	(cd "$2" && "$1" -test.run '^$' -test.bench "$re" -test.benchtime "${BENCHTIME:-1s}" -test.timeout 10m) |
		awk '/^Benchmark/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") { print $1, $(i - 1); exit } }'
}

for i in $(seq "$pairs"); do
	read -r an a <<<"$(run "$tmp/ref.test" "$tmp/ref/$pkg")"
	read -r bn b <<<"$(run "$tmp/tree.test" "$pkg")"
	[ -n "${a:-}" ] && [ -n "${b:-}" ] || { echo "no result line for $re" >&2; exit 1; }
	echo "pair $i: ref $an $a ns/op, tree $bn $b ns/op, speedup $(awk -v a="$a" -v b="$b" 'BEGIN { printf "%.3f", a / b }')"
done | tee "$tmp/pairs.txt"

# Quartiles by linear interpolation between order statistics.
awk '
function q(v, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
function report(label, v, n,   i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	v[n + 1] = v[n]
	printf "%-8s median %.6g  IQR %.4g (q1 %.6g, q3 %.6g)\n", label, q(v, n, 0.5), q(v, n, 0.75) - q(v, n, 0.25), q(v, n, 0.25), q(v, n, 0.75)
}
{ n++; a[n] = $5; b[n] = $9; s[n] = $NF }
END { report("ref", a, n); report("tree", b, n); report("speedup", s, n) }' "$tmp/pairs.txt"
