#!/usr/bin/env bash
# The algorithm's mutation table (DESIGN.md §13, "The algorithm under
# mutation"): each mutant breaks one part of Warper on a temporary copy of
# this checkout, then the three paper-fidelity gates run against it (`go test -run TestFidelity ./internal/experiments`,
# seeds 1–3 at QuickScale). One line per mutant names the gates that went
# red, or "none", plus the Figure 7 spread median the run logged. M0 is the
# unmutated tree. About 15 s per mutant.
#
#	scripts/mutants.sh            # M0 and M1–M8
#	scripts/mutants.sh M3 M5      # just these
#
# Mutants patch by unique strings, never by line numbers: a seam that no
# longer matches exactly once stops the script with its name.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

methods=internal/experiments/env.go
adapter=internal/warper/adapter.go
components=internal/warper/components.go
warperCase='out = append(out, adapt.NewWarper(e.NewWarperAdapter(sc, s)))'
detected='rep.Detection, rep.TelemetryDegraded = det, det.TelemetryDegraded'

describe() {
	case $1 in
	M0) echo "unmutated tree" ;;
	M1) echo "uniform picker (StrategyRandom)" ;;
	M2) echo "AUG noise as the generator" ;;
	M3) echo "detector pinned to c2" ;;
	M4) echo "detector pinned to none" ;;
	M5) echo "anchor-only generator (genAdvWeight = 0)" ;;
	M6) echo "stratified picker with one error bucket" ;;
	M7) echo "no adaptation (NoAdapt as Warper)" ;;
	M8) echo "c3 picker replaced by pool order" ;;
	*) echo "mutants: unknown mutant $1" >&2; exit 2 ;;
	esac
}

# patch FILE OLD NEW replaces the one occurrence of the literal OLD in FILE.
patch() {
	OLD=$2 NEW=$3 perl -0777 -i -pe '
		my $n = () = /\Q$ENV{OLD}\E/g;
		die "mutants: $ARGV: seam matched $n times, want 1: $ENV{OLD}\n" if $n != 1;
		s/\Q$ENV{OLD}\E/$ENV{NEW}/;
	' "$1"
}

mutate() {
	case $1 in
	M0) ;;
	M1) patch $methods "$warperCase" 'ad := e.NewWarperAdapter(sc, s); ad.Picker.Strategy = warper.StrategyRandom; out = append(out, adapt.NewWarper(ad))' ;;
	M2) patch $methods "$warperCase" 'ad := e.NewWarperAdapter(sc, s); ad.GenFunc = e.augGenFunc(s); out = append(out, adapt.NewWarper(ad))' ;;
	M3) patch $adapter "$detected" "det.Mode = C2; $detected" ;;
	M4) patch $adapter "$detected" "det.Mode = ModeNone; $detected" ;;
	M5) patch $components 'genAdvWeight    = 0.2' 'genAdvWeight    = 0' ;;
	M6) patch $methods "$warperCase" 'ad := e.NewWarperAdapter(sc, s); ad.Picker.Buckets = 1; out = append(out, adapt.NewWarper(ad))' ;;
	M7) patch $methods "$warperCase" 'out = append(out, named{adapt.NoAdapt{M: e.Model.Clone()}, "Warper"})' ;;
	M8) patch $adapter 'return a.Picker.PickStratified(a.M, labeled, a.Pool.Unlabeled(pool.SrcNew), n, a.rng)' \
		'_ = labeled; cands := a.Pool.Unlabeled(pool.SrcNew); return cands[:min(n, len(cands))]' ;;
	esac
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

[ $# -gt 0 ] || set -- M0 M1 M2 M3 M4 M5 M6 M7 M8
for m in "$@"; do
	what=$(describe "$m")
	rm -rf "$tmp/tree" && mkdir "$tmp/tree"
	tar -C "$root" --exclude=.git --exclude=.bench_build -cf - . | tar -C "$tmp/tree" -xf -
	(cd "$tmp/tree" && mutate "$m")
	out=$(cd "$tmp/tree" && go test -count=1 -v -run TestFidelity ./internal/experiments 2>&1) || true
	red=$(printf '%s\n' "$out" | sed -n 's/^--- FAIL: TestFidelity\([A-Za-z0-9]*\).*/\1/p' | paste -sd, -)
	if ! printf '%s\n' "$out" | grep -q -e '^ok' -e '^--- FAIL'; then
		red="(did not run: $(printf '%s\n' "$out" | head -1))"
	fi
	spread=$(printf '%s\n' "$out" | sed -n 's/.*spread ratio per seed.* median \([0-9.]*\).*/\1/p')
	printf '%-3s %-42s red: %-50s fig7 spread median %s\n' "$m" "$what" "${red:-none}" "${spread:--}"
done
