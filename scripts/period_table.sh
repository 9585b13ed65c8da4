#!/usr/bin/env bash
# Print the README's "where a period's time goes" table from two traced
# benchmark-of-record runs of the adaptation workload:
#
#   bash bench/run.sh --workload adapt_drift --trace 1 > before.txt   # at the parent commit
#   bash bench/run.sh --workload adapt_drift --trace 1 > after.txt    # at this commit
#   scripts/period_table.sh before.txt after.txt
#
# Stage times are the sums over the script's 48 periods as the run prints
# them; the table shows them per period.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 BEFORE.txt AFTER.txt" >&2; exit 2; }

awk '
FNR == 1 { file++ }
/^  (warper\.(detect|generate|pick|annotate|update)_ms|warper\.periods|process\.alloc_mb_per_period|period_mean_ms|raw\.period_mean_ms) / {
	v[file, $1] = $2
}
END {
	n = split("warper.detect_ms warper.generate_ms warper.pick_ms warper.annotate_ms warper.update_ms", stage, " ")
	print "| per period | before | after | change |"
	print "|---|---|---|---|"
	for (i = 1; i <= n; i++) {
		b = v[1, stage[i]] / v[1, "warper.periods"]; a = v[2, stage[i]] / v[2, "warper.periods"]
		printf "| `%s` | %.1f ms | %.1f ms | %+.0f %% |\n", stage[i], b, a, (a / b - 1) * 100
	}
	m = split("raw.period_mean_ms period_mean_ms process.alloc_mb_per_period", rest, " ")
	unit["raw.period_mean_ms"] = "ms"; unit["period_mean_ms"] = "ms"; unit["process.alloc_mb_per_period"] = "MB"
	for (i = 1; i <= m; i++) {
		b = v[1, rest[i]]; a = v[2, rest[i]]
		printf "| `%s` | %.1f %s | %.1f %s | %+.0f %% |\n", rest[i], b, unit[rest[i]], a, unit[rest[i]], (a / b - 1) * 100
	}
}' "$1" "$2"
