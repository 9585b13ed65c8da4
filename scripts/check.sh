#!/usr/bin/env sh
# Tier-1 verification flow: build, vet (host and arm64), the arm64 fused
# multiply-add guard, warperlint, full test suite, the internal packages'
# short tests on the pure-Go 386 build, a module-wide race pass
# (training-heavy tests skip themselves under -short), the fault-injected
# chaos soak, and ten seconds of fuzzing per fuzz target.
# This script is the flow: `make check` and the CI workflow both run it.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The non-amd64 side of every GOARCH-split pair (internal/nn's simd_other.go
# stubs) is compiled by nothing else on an amd64 runner.
echo "== GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

# The Go spec lets a compiler fuse x*y+z into one multiply-add, rounding once
# where the source rounds twice; the arm64 compiler does, the amd64 baseline
# does not, so a fused product would give arm64 other bits than the golden
# tests pin on amd64. An explicit float64(x*y) conversion forbids the fusion.
# The compiler listing of every internal package must hold no fused
# instruction (the go command replays a cached package's listing).
echo "== GOARCH=arm64 go build -gcflags=-S ./internal/... (no fused multiply-add)"
asm=$(mktemp)
trap 'rm -f "$asm"' EXIT
GOARCH=arm64 go build -gcflags=-S ./internal/... 2>"$asm"
if grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' "$asm"; then
	echo "fused multiply-add in the arm64 build: wrap each product above in float64(...)" >&2
	exit 1
fi

# The JSON report lands in warperlint.json for the CI artifact upload;
# warperlint logs its load/analyze durations to stderr either way. The
# file is written even when diagnostics fail the run, so the artifact
# shows what fired.
echo "== go run ./cmd/warperlint -json ./... (report: warperlint.json)"
go run ./cmd/warperlint -json ./... > warperlint.json

echo "== go test ./..."
go test ./...

# 386 has no AVX2 kernels, so internal/nn runs only its generic kernel set,
# which every non-amd64 build runs; amd64 runners execute 386 natively.
echo "== GOARCH=386 go test -short ./internal/..."
GOARCH=386 go test -short ./internal/...

echo "== go test -race -short ./..."
go test -race -short ./...

# The chaos command and the six fuzz commands are defined once, in the
# Makefile (EVENTS_OUT and FUZZTIME are its variables; an exported FUZZTIME
# reaches it through the environment).
echo "== make chaos (WARPER_CHAOS=1 fault-injected + overload soak + 10^5-op differential driver)"
make chaos

echo "== make fuzz-smoke (FUZZTIME, default 10s, per target)"
make fuzz-smoke

echo "OK"
