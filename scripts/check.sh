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

# The chaos command and the four fuzz commands are defined once, in the
# Makefile (EVENTS_OUT and FUZZTIME are its variables; an exported FUZZTIME
# reaches it through the environment).
echo "== make chaos (WARPER_CHAOS=1 fault-injected + overload soak + 10^5-op differential driver)"
make chaos

echo "== make fuzz-smoke (FUZZTIME, default 10s, per target)"
make fuzz-smoke

echo "OK"
