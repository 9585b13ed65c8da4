#!/usr/bin/env sh
# The line census CHANGES.md entries quote: non-test, non-testdata Go lines,
# per package directory and in total. "Smaller" in a simplicity PR means this
# number went down with nothing moved into _test.go or data files. An
# argument names another checkout to count (a clone of the parent commit).
set -eu
cd "${1:-$(dirname "$0")/..}"

census() {
	find "$@" -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l
}

find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -exec dirname {} \; |
	sort -u | while read -r dir; do
	printf '%7d  %s\n' "$(census "$dir" -maxdepth 1)" "${dir#./}"
done
printf '%7d  total\n' "$(census .)"
