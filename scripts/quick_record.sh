#!/usr/bin/env bash
# The quick-scale paper record of a checkout: `warperbench -exp all -quick`
# (all 18 ids, seed 1) without the "[… done in …]" timing lines and without
# the Table 6 / Table 11 blocks, whose cells are wall-clock ledger reads.
# What is left is deterministic, so diffing two checkouts is an identity
# check of the paper record:
#
#	diff <(scripts/quick_record.sh /path/to/parent) <(scripts/quick_record.sh)
#
# An argument names the checkout to run (default: this one).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

go run ./cmd/warperbench -exp all -quick | awk '
	/^== Table (6|11): / { skip = 1 }
	skip { if ($0 == "") skip = 0; next }
	/^\[.* done in .*\]$/ { next }
	{ print }'
