# Build/test entry points. `make check` is the full tier-1 flow the CI
# driver runs; `make race` sweeps the whole module under the race detector
# (-short skips training-heavy tests so the pass stays fast); `make lint`
# runs warperlint, the stdlib-only analyzer suite in internal/lint.

GO ?= go

.PHONY: build test race vet lint chaos fuzz-smoke check bench bench-serve bench-overload bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Module-wide race pass. Tests that spend their time in model training
# guard themselves with testing.Short(), so -short keeps this about the
# concurrency, not the math. The one training-heavy test the pass does run is
# the golden-bits script: a seeded adaptation run that must reproduce its
# pinned weights while shards and gradient tasks fan out at 1, 2 and 4 workers.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 -run '^TestGoldenBits' ./internal/warper

vet:
	$(GO) vet ./...

# warperlint enforces determinism, panic-safety, lock hygiene, error
# handling, and the module-wide call-graph contracts: hot-path
# allocation-freedom, atomic-field discipline, goroutine exits, and lock
# ordering (see internal/lint, DESIGN.md §13). Exits non-zero on any
# diagnostic.
lint:
	$(GO) run ./cmd/warperlint ./...

# Fault-injected soak: the WARPER_CHAOS gate enables the opt-in chaos tests
# (heavy injected errors/hangs under concurrent traffic, plus the overload
# soak: replica starvation + slow swaps + open breaker) on top of the
# always-on fault-tolerance tests, under the race detector. The soak writes
# its /debug/events adaptation journal to $(EVENTS_OUT); everything under
# artifacts/ is ignored by git and uploaded by CI as a workflow artifact.
EVENTS_OUT ?= artifacts/EVENTS_chaos.json
chaos:
	@mkdir -p $(dir $(CURDIR)/$(EVENTS_OUT))
	WARPER_CHAOS=1 WARPER_EVENTS_OUT=$(CURDIR)/$(EVENTS_OUT) $(GO) test -race -count=1 -run 'Chaos|Faulty|Degraded|Overload' ./internal/serve ./internal/resilience ./internal/warper

# Ten seconds of coverage-guided fuzzing per target (go test takes one -fuzz
# target per run): the annotator's indexed count against the reference scan,
# the two wire decoders, and the JSON and binary estimate entry points
# against each other and a scalar reference. `go test ./...` only replays
# their seed corpora.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzCountMatchesScan$$' -fuzztime=$(FUZZTIME) ./internal/annotator
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzEstimateEntryPoints$$' -fuzztime=$(FUZZTIME) ./internal/serve

# Tier-2 benchmarks. bench: compute-core micro-benchmarks (nn/gbt/kernel +
# one full adaptation period) → BENCH_PR4.json, then the cross-PR trajectory
# table over every BENCH_*.json in the repo. bench-serve: concurrent
# /estimate serving throughput (single-lock baseline vs replica pool vs
# tracer envelope, byte-identity checked) → BENCH_PR5.json plus
# an adaptation-journal artifact, then the estimate-cache benchmark —
# Zipf(1.1) template workload, cached vs uncached, a 1-CPU pass and a
# GOMAXPROCS=2 pass, byte-identity held across a mid-run model swap →
# BENCH_PR9.json — and finally the binary-protocol benchmark: the columnar
# /estimate/batch endpoint vs scalar JSON over HTTP on the uncached path,
# with a zero-alloc batch assert and a GOMAXPROCS>=4 multi-core pass →
# BENCH_PR10.json. bench-smoke runs the quick variant of every suite, plus
# the annotator micro-benchmarks (count, batch, and count with the index
# invalidated every N counts), one full adaptation period and one GAN
# iteration with -benchmem (the log carries their allocs/op; the iteration's
# must read 0): it proves the harnesses run, not the numbers.
bench:
	./scripts/bench.sh micro -out BENCH_PR4.json
	./scripts/bench_trajectory.sh

bench-serve:
	@mkdir -p $(CURDIR)/artifacts
	WARPER_EVENTS_OUT=$(CURDIR)/artifacts/EVENTS_servebench.json ./scripts/bench.sh serve -out BENCH_PR5.json
	./scripts/bench.sh zipf -out BENCH_PR9.json
	./scripts/bench.sh wire -out BENCH_PR10.json
	./scripts/bench_trajectory.sh

# Overload acceptance run: open-loop load at 2x measured saturation through
# the admission controller, health machine and fallback ladder. Fails on
# unbounded queue growth, late sheds, or post-recovery divergence; records
# shed-rate and degraded-vs-full GMQ in BENCH_PR8.json.
bench-overload:
	./scripts/bench.sh overload -out BENCH_PR8.json
	./scripts/bench_trajectory.sh

bench-smoke:
	./scripts/bench.sh micro -quick -out /tmp/bench-smoke.json
	./scripts/bench.sh serve -quick -out /tmp/bench-serve-smoke.json
	./scripts/bench.sh overload -quick -out /tmp/bench-overload-smoke.json
	./scripts/bench.sh zipf -quick -out /tmp/bench-zipf-smoke.json
	./scripts/bench.sh wire -quick -out /tmp/bench-wire-smoke.json
	$(GO) test -run='^$$' -bench='^BenchmarkAnnotator' -benchtime=200x .
	$(GO) test -run='^$$' -bench='^BenchmarkWarperPeriod$$' -benchmem -benchtime=20x .
	$(GO) test -run='^$$' -bench='^BenchmarkGANIteration$$' -benchmem -benchtime=20x ./internal/warper
	./scripts/bench_trajectory.sh /tmp/bench-smoke.json /tmp/bench-serve-smoke.json /tmp/bench-zipf-smoke.json /tmp/bench-wire-smoke.json

check: build vet lint test race chaos fuzz-smoke
