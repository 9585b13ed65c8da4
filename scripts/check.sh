#!/usr/bin/env sh
# Tier-1 verification flow: build, vet, warperlint, full test suite, a
# module-wide race pass (training-heavy tests skip themselves under -short),
# the fault-injected chaos soak, and ten seconds of fuzzing per fuzz target.
# This script is the flow: `make check` and the CI workflow both run it.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The JSON report lands in warperlint.json for the CI artifact upload;
# warperlint logs its load/analyze durations to stderr either way. The
# file is written even when diagnostics fail the run, so the artifact
# shows what fired.
echo "== go run ./cmd/warperlint -json ./... (report: warperlint.json)"
go run ./cmd/warperlint -json ./... > warperlint.json

echo "== go test ./..."
go test ./...

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== chaos (WARPER_CHAOS=1 fault-injected + overload soak + 10^5-op differential driver)"
mkdir -p artifacts
WARPER_CHAOS=1 WARPER_EVENTS_OUT="$(pwd)/artifacts/EVENTS_chaos.json" \
	go test -race -count=1 -timeout 30m -run 'Chaos|Faulty|Degraded|Overload|Differential' \
	./internal/serve ./internal/resilience ./internal/warper

echo "== fuzz-smoke (${FUZZTIME:=10s} per target)"
go test -run='^$' -fuzz='^FuzzCountMatchesScan$' -fuzztime="$FUZZTIME" ./internal/annotator
go test -run='^$' -fuzz='^FuzzDecodeBatch$' -fuzztime="$FUZZTIME" ./internal/wire
go test -run='^$' -fuzz='^FuzzReadFrame$' -fuzztime="$FUZZTIME" ./internal/wire
go test -run='^$' -fuzz='^FuzzEstimateEntryPoints$' -fuzztime="$FUZZTIME" ./internal/serve

echo "OK"
