#!/usr/bin/env bash
# Compare the benchmark of record (bench/) between a git ref and the working
# tree on one workload, in alternating-order pairs from prebuilt binaries:
# the end-to-end twin of scripts/abpairs.sh.
#
#   scripts/e2epairs.sh <ref> <workload> [pairs]
#   scripts/e2epairs.sh HEAD~1 wire_unique 10
#
# <ref> is extracted with git archive into a mktemp -d directory, and the
# bench command of each tree is built once. Pair i runs both binaries with
# -workload <workload> -seconds 20 -seed i, each from its own tree's root;
# odd pairs run the ref first, even pairs the tree first. Each run's
# end-to-end metrics are read from its contract line (the last line of its
# output). The end prints, for every end-to-end metric BENCHMARK.json
# lists, each side's median and interquartile range, the number of pairs
# in which the tree was better by that metric's direction (ties count for
# neither), and every run's value in pair order; then the failed operations
# of each side and whether adapt_gmq read the same in every run.
# RUN_SECONDS (default 20) replaces -seconds, for a quick look at the
# script itself. Binaries, outputs and the extracted tree live in the
# temporary directory, which is removed on exit; nothing is written inside
# the checkout.
set -euo pipefail
[ $# -ge 2 ] && [ $# -le 3 ] || { echo "usage: $0 <ref> <workload> [pairs]" >&2; exit 2; }
ref=$1 workload=$2 pairs=${3:-10}
cd "$(dirname "$0")/.."
tree=$PWD
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && GOTOOLCHAIN=local go build -o "$tmp/ref.bench" ./bench)
GOTOOLCHAIN=local go build -o "$tmp/tree.bench" ./bench

# run SIDE PAIR runs one side's binary from its tree's root and keeps the
# contract line in $tmp/SIDE.PAIR.json.
run() {
	local dir=$tree
	[ "$1" = ref ] && dir=$tmp/ref
	(cd "$dir" && "$tmp/$1.bench" -workload "$workload" -seconds "${RUN_SECONDS:-20}" -seed "$2") >"$tmp/$1.$2.out" 2>&1 ||
		echo "pair $2: the $1 run exited non-zero (see its VIOLATION lines)" >&2
	tail -n 1 "$tmp/$1.$2.out" >"$tmp/$1.$2.json"
}

for i in $(seq "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run ref "$i"
		run tree "$i"
		echo "pair $i: ref, then tree"
	else
		run tree "$i"
		run ref "$i"
		echo "pair $i: tree, then ref"
	fi
done

# metrics prints "name better" for each end-to-end metric of BENCHMARK.json.
metrics() {
	awk '/"end_to_end"/ { on = 1 } on && /^  \]/ { exit }
		on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
		on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json
}

# value FILE NAME prints NAME's value from a contract line.
value() {
	awk -v n="$2" '{ if (match($0, "\"" n "\":\\{\"value\":[^,}]*")) { s = substr($0, RSTART, RLENGTH); sub(/.*:/, "", s); print s } }' "$1"
}

# failed FILE prints the contract line's failed count.
failed() {
	awk '{ if (match($0, /"failed":[0-9]+/)) print substr($0, RSTART + 9, RLENGTH - 9) }' "$1"
}

metrics | while read -r name better; do
	for i in $(seq "$pairs"); do
		echo "$(value "$tmp/ref.$i.json" "$name") $(value "$tmp/tree.$i.json" "$name")"
	done | awk -v name="$name" -v better="$better" '
	function q(v, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
	function stats(v, n,   s, i, j, t) {
		for (i = 1; i <= n; i++) s[i] = v[i]
		for (i = 2; i <= n; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
		s[n + 1] = s[n]
		return sprintf("median %.6g IQR %.4g", q(s, n, 0.5), q(s, n, 0.75) - q(s, n, 0.25))
	}
	{ n++; a[n] = $1; b[n] = $2; ra = ra " " $1; rb = rb " " $2
	  if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) won++ }
	END {
		printf "%s (%s is better): ref %s | tree %s | tree better in %d of %d pairs\n", name, better, stats(a, n), stats(b, n), won, n
		printf "  ref runs:%s\n  tree runs:%s\n", ra, rb
	}'
done

for side in ref tree; do
	f=0 gmq=""
	for i in $(seq "$pairs"); do
		f=$((f + $(failed "$tmp/$side.$i.json")))
		gmq="$gmq $(value "$tmp/$side.$i.json" adapt_gmq)"
	done
	distinct=$(echo "$gmq" | tr ' ' '\n' | sed '/^$/d' | sort -u)
	if [ "$(echo "$distinct" | wc -l)" -eq 1 ]; then
		echo "$side: failed $f over $pairs runs; adapt_gmq $distinct in every run"
	else
		echo "$side: failed $f over $pairs runs; adapt_gmq NOT identical:" $distinct
	fi
done
