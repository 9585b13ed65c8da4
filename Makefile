# Build/test entry points. `make check` is the full tier-1 flow the CI
# driver runs (scripts/check.sh, the one definition of it: build, vet on
# amd64 and arm64, the guard that the arm64 build of the internal packages
# fuses no multiply-add, warperlint, the tests, the internal packages' short
# tests on the pure-Go 386 build, race, chaos and fuzz); `make race`
# sweeps the whole module under the race detector (-short skips
# training-heavy tests so the pass stays fast); `make lint` runs warperlint,
# the stdlib-only analyzer suite in internal/lint.

GO ?= go

.PHONY: build test race vet lint chaos fuzz-smoke check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Module-wide race pass. Tests that spend their time in model training
# guard themselves with testing.Short(), so -short keeps this about the
# concurrency (the serving plane's), not the math: training runs on one
# goroutine and has nothing to race.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# warperlint enforces determinism, panic-safety, error handling, context
# propagation, metric naming, two syntactic bans (function-style sync/atomic,
# `go` statements) and the two module-wide call-graph contracts: hot-path
# allocation-freedom and the lock discipline, which bans taking a module lock
# under another (see internal/lint, DESIGN.md §13).
# Exits non-zero on any diagnostic.
lint:
	$(GO) run ./cmd/warperlint ./...

# Fault-injected soak: the WARPER_CHAOS gate enables the opt-in chaos tests
# (heavy injected errors/hangs under concurrent traffic; the overload soak:
# replica starvation + slow swaps + open breaker; the open-loop 2x-saturation
# acceptance run; and the differential driver's long sequence — 10^5 seeded
# operations per seed and mode against the one-mutex reference server) on top
# of the always-on fault-tolerance tests, under the race detector. The soak writes
# its /status document, adaptation journal included, to $(EVENTS_OUT); everything
# under artifacts/ is ignored by git and uploaded by CI as a workflow artifact.
EVENTS_OUT ?= artifacts/EVENTS_chaos.json
chaos:
	@mkdir -p $(dir $(CURDIR)/$(EVENTS_OUT))
	WARPER_CHAOS=1 WARPER_EVENTS_OUT=$(CURDIR)/$(EVENTS_OUT) $(GO) test -race -count=1 -timeout 30m -run 'Chaos|Faulty|Degraded|Overload|Differential' ./internal/serve ./internal/resilience ./internal/warper

# Ten seconds of coverage-guided fuzzing per target (go test takes one -fuzz
# target per run): the annotator's indexed count against the reference scan,
# the CSV loader, the wire request decoder, the JSON and binary estimate
# entry points against each other and a scalar reference, and the JSON body
# recogniser against encoding/json. `go test ./...` only replays their seed
# corpora.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzCountMatchesScan$$' -fuzztime=$(FUZZTIME) ./internal/annotator
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzFromCSV$$' -fuzztime=$(FUZZTIME) ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzEstimateEntryPoints$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzPredicateBody$$' -fuzztime=$(FUZZTIME) ./internal/serve

# The benchmark of record (BENCHMARK.json, bench/README.md): four 20-second
# workloads against the system built as warperd builds it, with a
# bit-identity oracle on every served row; -all runs each one untraced (the
# gated metrics) and then traced (the per-layer ones). Package micro-benchmarks are plain
# `go test -bench` in internal/{nn,gbt,ce,annotator,resilience,warper}; CI
# runs each once to prove it builds and runs.
bench:
	bash bench/run.sh -all

check:
	./scripts/check.sh
