// Command warperd serves a Warper-adapted cardinality estimator over HTTP.
//
// It loads (or synthesizes) a table, trains a CE model on an initial
// workload, wraps it in a Warper adapter, and exposes:
//
//	POST /estimate     {"lows": [...], "highs": [...]}            → {"cardinality": N}
//	POST /estimate/batch        columnar binary batch frame (with -binary)
//	POST /estimate/batch/stream length-prefixed binary frames (with -binary)
//	POST /feedback     {"lows": [...], "highs": [...], "cardinality": N}
//	POST /period       run one adaptation period over buffered feedback
//	GET  /status       model, pool, thresholds, component costs
//	GET  /statusz      human-readable flight-recorder page (HTML)
//	GET  /metrics      Prometheus text exposition
//	GET  /debug/vars   JSON metric dump
//	GET  /debug/traces Chrome trace-event JSON of sampled requests
//	GET  /debug/events adaptation event journal (JSON)
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
//	warperd -faults 0.2 -fault-hang 0.05 -annotate-timeout 500ms  # chaos mode
//	warperd -trace-sample 100 -drift-alarm-gmq 4      # drift flight recorder
//	warperd -estimate-timeout 50ms -shed-queue 256    # overload-safe serving
//	warperd -cache-entries 8192 -cache-shards 16      # estimate-cache tuning (-estimate-cache=false to disable)
//	warperd -binary                                   # columnar binary batch endpoints
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

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		ds        = flag.String("dataset", "prsa", "synthetic dataset: higgs, prsa or poker")
		csvPath   = flag.String("csv", "", "load the table from a CSV file instead")
		rows      = flag.Int("rows", 6000, "synthetic table rows")
		model     = flag.String("model", "lm-mlp", "CE model: lm-mlp, lm-gbt, lm-ply, lm-rbf")
		trainSize = flag.Int("train", 600, "initial training workload size")
		trainWkld = flag.String("workload", "w1", "initial workload spec (w1..w5, mixtures like w12)")
		seed      = flag.Int64("seed", 1, "random seed")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		pprofOn   = flag.Bool("pprof", false, "expose /debug/pprof/ profiling endpoints")

		// Concurrent serving. Replicas are deep model clones checked out per
		// group of estimates.
		replicas = flag.Int("replicas", 0, "serving replicas (0 = GOMAXPROCS)")

		// Overload safety. The deadline budgets how long an estimate may
		// queue for a replica before the fallback ladder (or a 429) answers;
		// the shed queue bounds admission; the health machine rides on top.
		estTimeout = flag.Duration("estimate-timeout", 0, "per-request /estimate deadline budget, overridable via X-Warper-Deadline-Ms (0 = wait forever)")
		shedQueue  = flag.Int("shed-queue", 0, "max estimates queued for a replica before load shedding (0 = max(64, 16*replicas))")
		fallback   = flag.Bool("fallback", true, "serve budget misses and degraded mode from the histogram fallback ladder instead of shedding")

		// Estimate cache. Entries are stamped with the serving generation, so
		// a model swap invalidates the whole cache with one atomic bump;
		// degraded/shed answers are never cached.
		// Binary protocol: the zero-copy columnar batch endpoints.
		binaryOn = flag.Bool("binary", false, "mount the columnar binary batch endpoints /estimate/batch and /estimate/batch/stream")

		estCache     = flag.Bool("estimate-cache", true, "answer repeated predicates from the generation-stamped estimate cache")
		cacheShards  = flag.Int("cache-shards", 0, "estimate-cache shards, rounded up to a power of two (0 = 8)")
		cacheEntries = flag.Int("cache-entries", 0, "estimate-cache capacity in entries across all shards (0 = 4096)")
		cacheFlush   = flag.Bool("cache-flush-on-alarm", true, "flush the estimate cache when the drift watch raises its alarm")

		// Fault tolerance. The resilience wrapper always guards period-time
		// annotation; the -faults* flags additionally inject deterministic
		// faults underneath it — the chaos-testing mode used to demo the
		// degradation ladder end to end.
		// Drift flight recorder. Tracing is off by default so /estimate stays
		// allocation-free; the drift watch always runs (it rides the feedback
		// path, not the hot path).
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N requests (0 = tracing off)")
		traceBuf    = flag.Int("trace-buf", 0, "finished traces kept for /debug/traces (0 = default 64)")
		driftWindow = flag.Duration("drift-window", 0, "rolling q-error drift window (0 = default 5m)")
		driftAlarm  = flag.Float64("drift-alarm-gmq", 4, "windowed GMQ that raises the drift alarm (0 = off)")

		faultErr      = flag.Float64("faults", 0, "injected annotation error rate in [0,1] (testing)")
		faultHang     = flag.Float64("fault-hang", 0, "injected annotation hang rate in [0,1] (testing)")
		faultLatency  = flag.Duration("fault-latency", 0, "injected annotation latency (testing)")
		annTimeout    = flag.Duration("annotate-timeout", 2*time.Second, "per-attempt annotation deadline")
		annRetries    = flag.Int("annotate-retries", 3, "annotation attempts per call, including the first")
		periodTimeout = flag.Duration("period-timeout", 0, "deadline for one POST /period adaptation (0 = none)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	rng := rand.New(rand.NewSource(*seed))

	var tbl *dataset.Table
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			logger.Error("open csv", "path", *csvPath, "err", err)
			os.Exit(1)
		}
		tbl, err = dataset.FromCSV("csv", f, dataset.CSVOptions{HasHeader: true})
		if cerr := f.Close(); cerr != nil {
			logger.Warn("close csv", "path", *csvPath, "err", cerr)
		}
		if err != nil {
			logger.Error("parse csv", "path", *csvPath, "err", err)
			os.Exit(1)
		}
	} else {
		switch *ds {
		case "higgs":
			tbl = dataset.Higgs(*rows, rng)
		case "poker":
			tbl = dataset.Poker(*rows, rng)
		case "prsa":
			tbl = dataset.PRSA(*rows, rng)
		default:
			logger.Error("unknown dataset", "dataset", *ds)
			os.Exit(1)
		}
	}
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	logger.Info("table loaded", "name", tbl.Name, "rows", tbl.NumRows(), "cols", tbl.NumCols())

	var m ce.Estimator
	switch *model {
	case "lm-mlp":
		m = ce.NewLM(ce.LMMLP, sch, *seed)
	case "lm-gbt":
		m = ce.NewLM(ce.LMGBT, sch, *seed)
	case "lm-ply":
		m = ce.NewLM(ce.LMPly, sch, *seed)
	case "lm-rbf":
		m = ce.NewLM(ce.LMRBF, sch, *seed)
	default:
		logger.Error("unknown model", "model", *model)
		os.Exit(1)
	}
	g := workload.Parse(*trainWkld, tbl, sch, workload.Options{MaxConstrained: 2})
	train, err := ann.AnnotateAll(context.Background(), workload.Generate(g, *trainSize, rng))
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
	srv := serve.NewWithOptions(adapter, sch, serve.Options{
		Logger:        logger,
		EnablePprof:   *pprofOn,
		PeriodTimeout: *periodTimeout,
		Replicas:      *replicas,
		TraceSample:   *traceSample,
		TraceBuf:      *traceBuf,
		DriftWindow:   *driftWindow,
		DriftAlarmGMQ: *driftAlarm,

		EstimateTimeout: *estTimeout,
		ShedQueue:       *shedQueue,
		NoFallback:      !*fallback,

		EstimateCache:     *estCache,
		CacheShards:       *cacheShards,
		CacheEntries:      *cacheEntries,
		CacheFlushOnAlarm: *cacheFlush,

		BinaryProtocol: *binaryOn,
	})

	// Route period-time annotation through the resilience stack: optional
	// deterministic fault injection (-faults*) under retry/backoff, per-
	// attempt timeouts and a circuit breaker, reporting into the server's
	// /metrics registry and charging retries to the adapter's cost ledger.
	var src annotator.Source = ann
	if *faultErr > 0 || *faultHang > 0 || *faultLatency > 0 {
		src = resilience.NewFaulty(src, resilience.FaultPlan{
			ErrRate:  *faultErr,
			HangRate: *faultHang,
			Latency:  *faultLatency,
			Seed:     *seed,
		})
		logger.Warn("fault injection enabled",
			"err_rate", *faultErr, "hang_rate", *faultHang, "latency", *faultLatency)
	}
	adapter.SetSource(resilience.Wrap(src, resilience.Policy{
		MaxAttempts:    *annRetries,
		AttemptTimeout: *annTimeout,
		Seed:           *seed,
	}, srv.Metrics().ResilienceEvents()).WithCostLedger(adapter.Ledger))

	logger.Info("serving", "addr", *addr, "pprof", *pprofOn)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		logger.Error("listen", "err", err)
		os.Exit(1)
	}
}
