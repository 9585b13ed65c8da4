// Command warperd serves a Warper-adapted cardinality estimator over HTTP.
//
// It loads (or synthesizes) a table, trains a CE model on an initial
// workload, wraps it in a Warper adapter, and exposes:
//
//	POST /estimate     {"lows": [...], "highs": [...]}            → {"cardinality": N}
//	POST /estimate/batch columnar binary batch frame
//	POST /feedback     {"lows": [...], "highs": [...], "cardinality": N}
//	POST /period       run one adaptation period over buffered feedback
//	GET  /status       the status document: model, generation, pool, thresholds,
//	                   costs, health, cache, drift, journal and sampled traces (JSON)
//	GET  /metrics      Prometheus text exposition
//	GET  /debug/pprof/ CPU/heap profiles (only with -pprof)
//	GET  /healthz
//
// Logs are structured (log/slog): one summary line per adaptation period at
// info level, per-request lines at debug level (-log-level debug).
//
// Usage:
//
//	warperd -addr :8080 -dataset prsa                 # synthetic table
//	warperd -addr :8080 -csv mydata.csv -model lm-mlp # your own CSV
//	warperd -addr :8080 -pprof -log-level debug       # full observability
//	warperd -replicas 8                               # concurrent serving tuning
//	warperd -annotate-timeout 500ms -annotate-retries 5 -period-timeout 30s  # period-time fault tolerance
//	warperd -trace-sample 100 -drift-alarm-gmq 4      # drift flight recorder
//	warperd -estimate-timeout 50ms                    # overload-safe serving
//	warperd -cache-entries 8192                       # estimate-cache capacity
//
// The server it builds is the one bench/fixture.go measures: estimate cache
// on, binary batch endpoints mounted, fallback ladder on. Fault injection
// lives in the tests behind `make chaos`.
//
// /status's "costs" is the adapter's cost ledger in seconds, keyed by the
// ledger's own names: "pretrain", then every period's time under its stage
// names (detect, generate, pick, annotate, update) — the stage label of
// warper_period_stage_seconds — and "annotate_retry", the failed annotation
// attempts, already inside the stage that made them (annotate, or detect and
// update, whose canary probes use the same source).
package main

import (
	"context"
	"flag"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"time"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/resilience"
	"warper/internal/serve"
	"warper/internal/warper"
	"warper/internal/workload"
)

// config is the parsed command line.
type config struct {
	addr      string
	dataset   string
	csvPath   string
	rows      int
	model     string
	trainSize int
	workload  string
	seed      int64
	logLevel  string
	pprof     bool

	replicas     int
	estTimeout   time.Duration
	cacheEntries int

	traceSample int
	driftWindow time.Duration
	driftAlarm  float64

	annTimeout    time.Duration
	annRetries    int
	periodTimeout time.Duration
}

// defineFlags registers every warperd flag on fs and returns the struct
// fs.Parse fills. main_test.go holds the README flag tables and the usage
// lines to exactly this set.
func defineFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.dataset, "dataset", "prsa", "synthetic dataset: higgs, prsa or poker")
	fs.StringVar(&c.csvPath, "csv", "", "load the table from a CSV file with a header row instead; NaN and ±Inf cells are refused")
	fs.IntVar(&c.rows, "rows", 6000, "synthetic table rows")
	fs.StringVar(&c.model, "model", "lm-mlp", "CE model: lm-mlp, lm-gbt, lm-ply, lm-rbf")
	fs.IntVar(&c.trainSize, "train", 600, "initial training workload size")
	fs.StringVar(&c.workload, "workload", "w1", "initial workload spec (w1..w5, mixtures like w12)")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.StringVar(&c.logLevel, "log-level", "info", "log level: debug, info, warn or error")
	fs.BoolVar(&c.pprof, "pprof", false, "expose /debug/pprof/ profiling endpoints")

	// Concurrent serving. Replicas are deep model clones checked out per
	// group of estimates.
	fs.IntVar(&c.replicas, "replicas", 0, "serving replicas (0 = GOMAXPROCS)")

	// Overload safety. The deadline budgets how long an estimate may queue
	// for a replica before the fallback ladder answers; the admission queue
	// is bounded at max(64, 16*replicas) and the health machine rides on top.
	fs.DurationVar(&c.estTimeout, "estimate-timeout", 0, "per-request /estimate deadline budget, overridable via X-Warper-Deadline-Ms (0 = wait forever)")

	// Estimate cache. Entries are stamped with the serving generation, so
	// a model swap invalidates the whole cache with one atomic bump;
	// degraded/shed answers are never cached.
	fs.IntVar(&c.cacheEntries, "cache-entries", 0, "estimate-cache capacity in entries (0 = 4096; clamped to 4194304)")

	// Drift flight recorder. Tracing is off by default so /estimate stays
	// allocation-free; the drift watch always runs (it rides the feedback
	// path, not the hot path).
	fs.IntVar(&c.traceSample, "trace-sample", 0, "trace 1 in N requests (0 = tracing off)")
	fs.DurationVar(&c.driftWindow, "drift-window", 0, "rolling q-error drift window (0 = default 5m)")
	fs.Float64Var(&c.driftAlarm, "drift-alarm-gmq", 4, "windowed GMQ that raises the drift alarm (0 = off)")

	// Fault tolerance. The resilience wrapper always guards period-time
	// annotation: retry with backoff and per-attempt timeouts. A failing
	// annotator fails periods, never serving: health reads serving load only.
	fs.DurationVar(&c.annTimeout, "annotate-timeout", 2*time.Second, "per-attempt annotation deadline")
	fs.IntVar(&c.annRetries, "annotate-retries", 3, "annotation attempts per call, including the first")
	fs.DurationVar(&c.periodTimeout, "period-timeout", 0, "deadline for one POST /period adaptation (0 = none)")
	return c
}

func main() {
	cfg := defineFlags(flag.CommandLine)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(cfg.logLevel)); err != nil {
		slog.Error("bad -log-level", "value", cfg.logLevel, "err", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	rng := rand.New(rand.NewSource(cfg.seed))

	var tbl *dataset.Table
	if cfg.csvPath != "" {
		f, err := os.Open(cfg.csvPath)
		if err != nil {
			logger.Error("open csv", "path", cfg.csvPath, "err", err)
			os.Exit(1)
		}
		tbl, err = dataset.FromCSV("csv", f, dataset.CSVOptions{HasHeader: true})
		if cerr := f.Close(); cerr != nil {
			logger.Warn("close csv", "path", cfg.csvPath, "err", cerr)
		}
		if err != nil {
			logger.Error("parse csv", "path", cfg.csvPath, "err", err)
			os.Exit(1)
		}
	} else {
		var err error
		if tbl, err = dataset.ByName(cfg.dataset, cfg.rows, rng); err != nil {
			logger.Error("unknown dataset", "err", err)
			os.Exit(1)
		}
	}
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	logger.Info("table loaded", "name", tbl.Name, "rows", tbl.NumRows(), "cols", tbl.NumCols())

	variant, err := ce.ParseLMVariant(cfg.model)
	if err != nil {
		logger.Error("unknown model", "err", err)
		os.Exit(1)
	}
	var m ce.Estimator = ce.NewLM(variant, sch, cfg.seed)
	g := workload.Parse(cfg.workload, tbl, sch, workload.Options{MaxConstrained: 2})
	train, err := ann.AnnotateAll(context.Background(), workload.Generate(g, cfg.trainSize, rng))
	if err != nil {
		logger.Error("train workload annotation failed", "err", err)
		os.Exit(1)
	}
	if err := m.Train(train); err != nil {
		logger.Error("train failed", "err", err)
		os.Exit(1)
	}
	logger.Info("model trained",
		"model", m.Name(), "examples", len(train), "workload", g.Name(),
		"gmq_in_dist", ce.EvalGMQ(m, train))

	adapter, err := warper.New(warper.DefaultConfig(), m, sch, ann, train)
	if err != nil {
		logger.Error("build adapter failed", "err", err)
		os.Exit(1)
	}
	// The estimate cache and the binary batch endpoint are always on, so the
	// server warperd runs is the server bench/fixture.go measures (the
	// fixture's EstimateCache, BinaryProtocol and CacheFlushOnAlarm are
	// deprecated no-ops).
	srv := serve.NewWithOptions(adapter, sch, serve.Options{
		Logger:        logger,
		EnablePprof:   cfg.pprof,
		PeriodTimeout: cfg.periodTimeout,
		Replicas:      cfg.replicas,
		TraceSample:   cfg.traceSample,
		DriftWindow:   cfg.driftWindow,
		DriftAlarmGMQ: cfg.driftAlarm,

		EstimateTimeout: cfg.estTimeout,
		CacheEntries:    cfg.cacheEntries,
	})

	// Route period-time annotation through the resilience stack:
	// retry/backoff and per-attempt timeouts, reporting into the server's
	// /metrics registry and charging retries to the adapter's cost ledger.
	adapter.SetSource(resilience.Wrap(ann, resilience.Policy{
		MaxAttempts:    cfg.annRetries,
		AttemptTimeout: cfg.annTimeout,
		Seed:           cfg.seed,
	}, srv.Metrics().ResilienceEvents()).WithCostLedger(adapter.Ledger))

	logger.Info("serving", "addr", cfg.addr, "pprof", cfg.pprof)
	if err := http.ListenAndServe(cfg.addr, srv.Handler()); err != nil {
		logger.Error("listen", "err", err)
		os.Exit(1)
	}
}
