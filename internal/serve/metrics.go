package serve

import (
	"strconv"
	"sync/atomic"
	"time"

	"warper/internal/obs"
	"warper/internal/resilience"
	"warper/internal/warper"
)

// Metric names that something besides their one declaration in NewMetrics
// refers to: families with several pre-created or lazily created series, and
// the names the tests look up. Every other name is stated once, in the
// declaring call.
const (
	mReqTotal        = "warper_http_requests_total"
	mReqSeconds      = "warper_http_request_seconds"
	mCheckoutWait    = "warper_replica_checkout_wait_seconds"
	mPeriodConflicts = "warper_period_conflicts_total"
	mBuffered        = "warper_feedback_buffered"
	mRefreshes       = "warper_replica_refreshes_total"

	// Overload-safety metrics (admission control + fallback ladder). Named
	// like serve_panics_total: serving-stack concerns, not adaptation ones,
	// so they carry the serve-side prefix style rather than warper_ — as do
	// the estimate-cache and wire-protocol families.
	mFallbackTotal = "estimate_fallback_total"
	mShedTotal     = "estimate_shed_total"
)

// Metrics holds every serving-stack metric.
type Metrics struct {
	Reg *obs.Registry

	checkoutWait *obs.Histogram
	qerr         *obs.Histogram
	periods      *obs.Counter
	conflicts    *obs.Counter
	failures     *obs.Counter
	panics       *obs.Counter
	generated    *obs.Counter
	annotated    *obs.Counter
	updates      *obs.Counter
	earlyStop    *obs.Counter
	poolSize     *obs.Gauge
	labeled      *obs.Gauge
	buffered     *obs.Gauge
	pi           *obs.Gauge
	gamma        *obs.Gauge
	deltaM       *obs.Gauge
	deltaJS      *obs.Gauge
	trained      *obs.Counter
	trainTput    *obs.Gauge
	// stages holds one histogram per period stage, indexed like
	// warper.Report.Stages.
	stages [len(warper.StageNames)]*obs.Histogram

	replicas      *obs.Gauge
	checkouts     *obs.Counter
	checkoutQueue *obs.Gauge
	refreshes     *obs.Counter
	swapSeconds   *obs.Histogram

	driftAlarm *obs.Gauge
	driftGMQ   *obs.Gauge

	healthState *obs.Gauge
	// Per-reason fallback and shed counters, pre-created so the estimate hot
	// path increments a pointer instead of doing a labeled registry lookup
	// (which would allocate the label key).
	fbTimeout     *obs.Counter
	fbDegraded    *obs.Counter
	shedQueueFull *obs.Counter
	shedShedding  *obs.Counter

	// Estimate-cache counters, pre-created for the same reason: the lookup
	// path increments pointers, never does a registry lookup.
	cacheHits          *obs.Counter
	cacheMisses        *obs.Counter
	cacheEvictions     *obs.Counter
	cacheInvalidations *obs.Counter
	cacheEntries       *obs.Gauge

	// Binary wire-protocol counters, pre-created so the batch hot path
	// increments pointers, never does a labeled registry lookup.
	wireBatches      *obs.Counter
	wireRows         *obs.Counter
	wireDecodeErrors *obs.Counter
	wireBatchRows    *obs.Histogram
	wireBufMisses    *obs.Counter

	annRetries    *obs.Counter
	annTimeouts   *obs.Counter
	annFailed     *obs.Counter
	periodPartial *obs.Counter
	telemetryDeg  *obs.Counter
}

// NewMetrics builds the serving metric set on a fresh registry. Each metric
// is declared once — name, help and handle in one call — and README's metric
// table is checked against the result (TestREADMEMetricTableMatchesRegistry).
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	// The per-request families get their series on first use (requestSeries).
	r.Help(mReqTotal, "HTTP requests by handler and status code.")
	r.Help(mReqSeconds, "HTTP request latency in seconds, by handler.")
	m := &Metrics{
		Reg:          r,
		checkoutWait: r.NewHistogram(mCheckoutWait, "Time estimate requests wait to check out a serving replica.", obs.LatencyOpts()),
		qerr:         r.NewHistogram("warper_qerror_ratio", "Observed q-error of served estimates, from execution feedback.", obs.QErrorOpts()),
		periods:      r.NewCounter("warper_periods_total", "Completed adaptation periods."),
		conflicts:    r.NewCounter(mPeriodConflicts, "Period requests rejected because one was already running."),
		failures:     r.NewCounter("warper_period_failures_total", "Adaptation periods that failed; the pre-period model kept serving."),
		panics:       r.NewCounter("serve_panics_total", "Handler panics converted to 500s by the recover middleware."),
		generated:    r.NewCounter("warper_generated_total", "Synthetic queries generated across all periods."),
		annotated:    r.NewCounter("warper_annotated_total", "Ground-truth annotations spent across all periods."),
		updates:      r.NewCounter("warper_model_updates_total", "Model updates applied across all periods."),
		earlyStop:    r.NewCounter("warper_early_stops_total", "Periods ended by the early-stop gain check."),
		poolSize:     r.NewGauge("warper_pool_size", "Query pool size after the last period."),
		labeled:      r.NewGauge("warper_pool_labeled", "Labeled entries in the query pool after the last period."),
		buffered:     r.NewGauge(mBuffered, "Feedback arrivals buffered for the next period."),
		pi:           r.NewGauge("warper_pi", "Current drift threshold pi."),
		gamma:        r.NewGauge("warper_gamma", "Current adequate-label threshold gamma."),
		deltaM:       r.NewGauge("warper_delta_m", "Accuracy-gap drift metric delta_m from the last period."),
		deltaJS:      r.NewGauge("warper_delta_js", "Workload-distance drift metric delta_js from the last period."),
		trained:      r.NewCounter("warper_train_samples_total", "Minibatch rows consumed by component training across all periods."),
		trainTput:    r.NewGauge("warper_train_samples_per_second", "Component training throughput of the last period, in samples per second of busy time."),

		replicas:      r.NewGauge("warper_serve_replicas", "Serving replica-pool size."),
		checkouts:     r.NewCounter("warper_replica_checkouts_total", "Replica checkouts: one per group of estimates that missed the cache (a scalar request is a group of one)."),
		checkoutQueue: r.NewGauge("warper_replica_checkout_queue", "Estimate requests currently queued for a free replica."),
		refreshes:     r.NewCounter(mRefreshes, "Replica re-clones after a model swap bumped the serving generation."),
		swapSeconds:   r.NewHistogram("warper_model_swap_seconds", "Time to swap a repaired model into the serving pool (clone + generation bump).", obs.LatencyOpts()),

		// Flight-recorder metrics (rolling q-error drift watch).
		driftAlarm: r.NewGauge("warper_drift_alarm", "Drift-watch alarm state: 1 while the windowed GMQ breaches the threshold."),
		driftGMQ:   r.NewGauge("warper_drift_window_gmq", "Geometric mean q-error over the drift watch's rolling window."),

		healthState:   r.NewGauge("serve_health_state", "Serving health state: 0 healthy, 1 degraded, 2 shedding."),
		fbTimeout:     r.NewCounter(mFallbackTotal, "Estimates answered by the fallback ladder instead of the model, by reason.", "reason", "timeout"),
		fbDegraded:    r.Counter(mFallbackTotal, "reason", "degraded"),
		shedQueueFull: r.NewCounter(mShedTotal, "Estimate requests shed by admission control (429), by reason.", "reason", "queue_full"),
		shedShedding:  r.Counter(mShedTotal, "reason", "shedding"),

		cacheHits:          r.NewCounter("estimate_cache_hits_total", "Estimates answered from the generation-stamped cache."),
		cacheMisses:        r.NewCounter("estimate_cache_misses_total", "Estimates that probed the cache and fell through to the replica pool."),
		cacheEvictions:     r.NewCounter("estimate_cache_evictions_total", "Live cache entries removed: evicted from a full probe group by a predicate seen before, or retired unhit at the end of their probation window."),
		cacheInvalidations: r.NewCounter("estimate_cache_invalidations_total", "Wholesale cache invalidations: model swaps, each of which invalidates every entry."),
		cacheEntries:       r.NewGauge("estimate_cache_entries", "Cache slots holding an entry (including generation-stale ones awaiting overwrite)."),

		wireBatches:      r.NewCounter("wire_batches_total", "Binary /estimate/batch requests served."),
		wireRows:         r.NewCounter("wire_rows_total", "Predicates served through the binary wire protocol."),
		wireDecodeErrors: r.NewCounter("wire_decode_errors_total", "Binary frames rejected by the wire decoder (bad header, size, or non-finite bounds)."),
		// Batch sizes span 1..maxWireRows; log-scale buckets from 1 up.
		wireBatchRows: r.NewHistogram("wire_batch_rows", "Binary batch sizes, in predicates per request frame.", obs.HistogramOpts{Start: 1, Growth: 2, Count: 14}),
		wireBufMisses: r.NewCounter("wire_buffer_misses_total", "Estimate requests (scalar or binary) that found the request-scratch free list empty and allocated a fresh unit."),

		// Resilience metrics (fault-tolerant annotation pipeline).
		annRetries:    r.NewCounter("warper_annotate_retries_total", "Annotation attempts retried by the resilience wrapper."),
		annTimeouts:   r.NewCounter("warper_annotate_timeouts_total", "Annotation attempts killed by the per-attempt deadline."),
		annFailed:     r.NewCounter("warper_annotate_failed_total", "Annotation calls that failed for good within a period (after retries)."),
		periodPartial: r.NewCounter("warper_period_partial_total", "Periods that proceeded with a partial annotation batch."),
		telemetryDeg:  r.NewCounter("warper_telemetry_degraded_total", "Periods whose canary telemetry or rebase was skipped after source failures."),
	}
	// One histogram per period stage, so /metrics shows the full stage set
	// from startup, not only after the first period.
	for i, st := range warper.StageNames {
		m.stages[i] = r.NewHistogram("warper_period_stage_seconds", "Adaptation period stage durations in seconds.", obs.LatencyOpts(), "stage", st)
	}
	return m
}

// requestDone records one finished HTTP request, looking its series up by
// label in the registry.
func (m *Metrics) requestDone(handler string, code int, d time.Duration) {
	m.Reg.Counter(mReqTotal, "handler", handler, "code", strconv.Itoa(code)).Inc()
	m.Reg.Histogram(mReqSeconds, obs.LatencyOpts(), "handler", handler).Observe(d.Seconds())
}

// requestSeries is one handler's per-request series: its latency histogram
// and a counter per status code, each looked up in the registry the first
// time it is used and held from then on. A request then costs two atomic
// loads instead of a label render under the registry lock, and the series
// still appear on first use, so /metrics before the first request is
// unchanged.
type requestSeries struct {
	m       *Metrics
	handler string
	latency atomic.Pointer[obs.Histogram]
	// codes holds the counters of status codes 100–599; the codes net/http
	// also allows beyond them take requestDone's lookup.
	codes [500]atomic.Pointer[obs.Counter]
}

func (m *Metrics) requestSeries(handler string) *requestSeries {
	return &requestSeries{m: m, handler: handler}
}

// done records one finished request.
func (rs *requestSeries) done(code int, d time.Duration) {
	if code < 100 || code-100 >= len(rs.codes) {
		rs.m.requestDone(rs.handler, code, d)
		return
	}
	c := rs.codes[code-100].Load()
	if c == nil {
		c = rs.m.Reg.Counter(mReqTotal, "handler", rs.handler, "code", strconv.Itoa(code))
		rs.codes[code-100].Store(c)
	}
	h := rs.latency.Load()
	if h == nil {
		h = rs.m.Reg.Histogram(mReqSeconds, obs.LatencyOpts(), "handler", rs.handler)
		rs.latency.Store(h)
	}
	c.Inc()
	h.Observe(d.Seconds())
}

// ResilienceEvents returns an Events seam that turns resilience wrapper
// callbacks into the warper_annotate_* metrics.
// Wire it into resilience.Wrap when installing a resilient source on the
// served adapter.
func (m *Metrics) ResilienceEvents() resilience.Events {
	return resilience.Events{
		Retry:   func(int, error) { m.annRetries.Inc() },
		Timeout: func(int) { m.annTimeouts.Inc() },
	}
}
