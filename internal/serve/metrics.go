package serve

import (
	"strconv"
	"time"

	"warper/internal/obs"
	"warper/internal/resilience"
	"warper/internal/warper"
)

// Metric names exposed on GET /metrics. Kept as constants so tests and the
// README's operating guide cannot drift from the implementation.
const (
	mReqTotal        = "warper_http_requests_total"
	mReqSeconds      = "warper_http_request_seconds"
	mCheckoutWait    = "warper_replica_checkout_wait_seconds"
	mQError          = "warper_qerror_ratio"
	mStageSeconds    = "warper_period_stage_seconds"
	mPeriodsTotal    = "warper_periods_total"
	mPeriodConflicts = "warper_period_conflicts_total"
	mPeriodFailures  = "warper_period_failures_total"
	mPanicsTotal     = "serve_panics_total"
	mGeneratedTotal  = "warper_generated_total"
	mAnnotatedTotal  = "warper_annotated_total"
	mUpdatesTotal    = "warper_model_updates_total"
	mEarlyStopsTotal = "warper_early_stops_total"
	mPoolSize        = "warper_pool_size"
	mPoolLabeled     = "warper_pool_labeled"
	mBuffered        = "warper_feedback_buffered"
	mPi              = "warper_pi"
	mGamma           = "warper_gamma"
	mDeltaM          = "warper_delta_m"
	mDeltaJS         = "warper_delta_js"
	mTrainSamples    = "warper_train_samples_total"
	mTrainThroughput = "warper_train_samples_per_second"

	// Replica-pool serving metrics.
	mReplicas      = "warper_serve_replicas"
	mCheckouts     = "warper_replica_checkouts_total"
	mCheckoutQueue = "warper_replica_checkout_queue"
	mRefreshes     = "warper_replica_refreshes_total"
	mSwapSeconds   = "warper_model_swap_seconds"

	// Flight-recorder metrics (rolling q-error drift watch).
	mDriftAlarm = "warper_drift_alarm"
	mDriftGMQ   = "warper_drift_window_gmq"

	// Overload-safety metrics (admission control + fallback ladder). Named
	// like serve_panics_total: serving-stack concerns, not adaptation ones,
	// so they carry the serve-side prefix style rather than warper_.
	mHealthState   = "serve_health_state"
	mFallbackTotal = "estimate_fallback_total"
	mShedTotal     = "estimate_shed_total"

	// Estimate-cache metrics (generation-stamped predicate→cardinality
	// cache in front of the replica pool). Serve-side prefix style, like
	// the overload metrics above.
	mCacheHits          = "estimate_cache_hits_total"
	mCacheMisses        = "estimate_cache_misses_total"
	mCacheEvictions     = "estimate_cache_evictions_total"
	mCacheInvalidations = "estimate_cache_invalidations_total"
	mCacheEntries       = "estimate_cache_entries"

	// Binary wire-protocol metrics (POST /estimate/batch and its streaming
	// variant). Serve-side prefix style, like the cache metrics above.
	mWireBatches      = "wire_batches_total"
	mWireRows         = "wire_rows_total"
	mWireDecodeErrors = "wire_decode_errors_total"
	mWireBatchRows    = "wire_batch_rows"
	mWireBufMisses    = "wire_buffer_misses_total"

	// Resilience metrics (fault-tolerant annotation pipeline).
	mAnnRetries    = "warper_annotate_retries_total"
	mAnnTimeouts   = "warper_annotate_timeouts_total"
	mAnnFailed     = "warper_annotate_failed_total"
	mAnnFallback   = "warper_annotate_fallback_total"
	mBreakerState  = "warper_breaker_state"
	mPeriodPartial = "warper_period_partial_total"
	mTelemetryDeg  = "warper_telemetry_degraded_total"
)

// Metrics holds every serving-stack metric. It implements warper.Observer,
// so wiring it as the adapter's Obs turns Period stage timings and summaries
// into histograms and gauges with no warper→obs dependency.
type Metrics struct {
	Reg *obs.Registry

	// rec, when non-nil, receives adaptation-lifecycle callbacks for the
	// flight recorder's event journal (set by NewWithOptions).
	rec *flightRecorder

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

	replicas      *obs.Gauge
	checkouts     *obs.Counter
	checkoutQueue *obs.Gauge
	refreshes     *obs.Counter
	swapSeconds   *obs.Histogram

	driftAlarm *obs.Gauge
	driftGMQ   *obs.Gauge

	// health, when non-nil, mirrors the annotation breaker state into the
	// serving health machine (set by NewWithOptions).
	health      *healthTracker
	healthState *obs.Gauge
	// Per-reason fallback and shed counters, pre-created so the estimate hot
	// path increments a pointer instead of doing a labeled registry lookup
	// (which would allocate the label key).
	fbTimeout     *obs.Counter
	fbBreaker     *obs.Counter
	fbDegraded    *obs.Counter
	shedQueueFull *obs.Counter
	shedShedding  *obs.Counter
	shedDeadline  *obs.Counter

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
	annFallback   *obs.Counter
	breakerState  *obs.Gauge
	periodPartial *obs.Counter
	telemetryDeg  *obs.Counter
}

// NewMetrics builds the serving metric set on a fresh registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	r.Help(mReqTotal, "HTTP requests by handler and status code.")
	r.Help(mReqSeconds, "HTTP request latency in seconds, by handler.")
	r.Help(mCheckoutWait, "Time estimate requests wait to check out a serving replica.")
	r.Help(mQError, "Observed q-error of served estimates, from execution feedback.")
	r.Help(mStageSeconds, "Adaptation period stage durations in seconds.")
	r.Help(mPeriodsTotal, "Completed adaptation periods.")
	r.Help(mPeriodConflicts, "Period requests rejected because one was already running.")
	r.Help(mPeriodFailures, "Adaptation periods that failed; the pre-period model kept serving.")
	r.Help(mPanicsTotal, "Handler panics converted to 500s by the recover middleware.")
	r.Help(mGeneratedTotal, "Synthetic queries generated across all periods.")
	r.Help(mAnnotatedTotal, "Ground-truth annotations spent across all periods.")
	r.Help(mUpdatesTotal, "Model updates applied across all periods.")
	r.Help(mEarlyStopsTotal, "Periods ended by the early-stop gain check.")
	r.Help(mPoolSize, "Query pool size after the last period.")
	r.Help(mPoolLabeled, "Labeled entries in the query pool after the last period.")
	r.Help(mBuffered, "Feedback arrivals buffered for the next period.")
	r.Help(mPi, "Current drift threshold pi.")
	r.Help(mGamma, "Current adequate-label threshold gamma.")
	r.Help(mDeltaM, "Accuracy-gap drift metric delta_m from the last period.")
	r.Help(mDeltaJS, "Workload-distance drift metric delta_js from the last period.")
	r.Help(mTrainSamples, "Minibatch rows consumed by component training across all periods.")
	r.Help(mTrainThroughput, "Component training throughput of the last period, in samples per second of busy time.")
	r.Help(mReplicas, "Serving replica-pool size.")
	r.Help(mCheckouts, "Replica checkouts: one per group of estimates that missed the cache (a scalar request is a group of one).")
	r.Help(mCheckoutQueue, "Estimate requests currently queued for a free replica.")
	r.Help(mRefreshes, "Replica re-clones after a model swap bumped the serving generation.")
	r.Help(mSwapSeconds, "Time to swap a repaired model into the serving pool (clone + generation bump).")
	r.Help(mDriftAlarm, "Drift-watch alarm state: 1 while the windowed GMQ breaches the threshold.")
	r.Help(mDriftGMQ, "Geometric mean q-error over the drift watch's rolling window.")
	r.Help(mHealthState, "Serving health state: 0 healthy, 1 degraded, 2 shedding.")
	r.Help(mFallbackTotal, "Estimates answered by the fallback ladder instead of the model, by reason.")
	r.Help(mShedTotal, "Estimate requests shed by admission control (429), by reason.")
	r.Help(mCacheHits, "Estimates answered from the generation-stamped cache.")
	r.Help(mCacheMisses, "Estimates that probed the cache and fell through to the replica pool.")
	r.Help(mCacheEvictions, "Live cache entries overwritten because their probe group was full.")
	r.Help(mCacheInvalidations, "Wholesale cache invalidations: model swaps plus explicit/drift-alarm flushes.")
	r.Help(mCacheEntries, "Cache slots holding an entry (including generation-stale ones awaiting overwrite).")
	r.Help(mWireBatches, "Binary /estimate/batch requests (and stream frames) served.")
	r.Help(mWireRows, "Predicates served through the binary wire protocol.")
	r.Help(mWireDecodeErrors, "Binary frames rejected by the wire decoder (bad header, size, or non-finite bounds).")
	r.Help(mWireBatchRows, "Binary batch sizes, in predicates per request frame.")
	r.Help(mWireBufMisses, "Estimate requests (scalar or binary) that found the request-scratch free list empty and allocated a fresh unit.")
	r.Help(mAnnRetries, "Annotation attempts retried by the resilience wrapper.")
	r.Help(mAnnTimeouts, "Annotation attempts killed by the per-attempt deadline.")
	r.Help(mAnnFailed, "Annotation calls that failed for good within a period (after retries).")
	r.Help(mAnnFallback, "Periods whose labels came partly from the sampled fallback annotator.")
	r.Help(mBreakerState, "Annotation circuit-breaker state: 0 closed, 1 open, 2 half-open.")
	r.Help(mPeriodPartial, "Periods that proceeded with a partial annotation batch.")
	r.Help(mTelemetryDeg, "Periods whose canary telemetry or rebase was skipped after source failures.")
	m := &Metrics{
		Reg:          r,
		checkoutWait: r.Histogram(mCheckoutWait, obs.LatencyOpts()),
		qerr:         r.Histogram(mQError, obs.QErrorOpts()),
		periods:      r.Counter(mPeriodsTotal),
		conflicts:    r.Counter(mPeriodConflicts),
		failures:     r.Counter(mPeriodFailures),
		panics:       r.Counter(mPanicsTotal),
		generated:    r.Counter(mGeneratedTotal),
		annotated:    r.Counter(mAnnotatedTotal),
		updates:      r.Counter(mUpdatesTotal),
		earlyStop:    r.Counter(mEarlyStopsTotal),
		poolSize:     r.Gauge(mPoolSize),
		labeled:      r.Gauge(mPoolLabeled),
		buffered:     r.Gauge(mBuffered),
		pi:           r.Gauge(mPi),
		gamma:        r.Gauge(mGamma),
		deltaM:       r.Gauge(mDeltaM),
		deltaJS:      r.Gauge(mDeltaJS),
		trained:      r.Counter(mTrainSamples),
		trainTput:    r.Gauge(mTrainThroughput),

		replicas:      r.Gauge(mReplicas),
		checkouts:     r.Counter(mCheckouts),
		checkoutQueue: r.Gauge(mCheckoutQueue),
		refreshes:     r.Counter(mRefreshes),
		swapSeconds:   r.Histogram(mSwapSeconds, obs.LatencyOpts()),

		driftAlarm: r.Gauge(mDriftAlarm),
		driftGMQ:   r.Gauge(mDriftGMQ),

		healthState:   r.Gauge(mHealthState),
		fbTimeout:     r.Counter(mFallbackTotal, "reason", "timeout"),
		fbBreaker:     r.Counter(mFallbackTotal, "reason", "breaker"),
		fbDegraded:    r.Counter(mFallbackTotal, "reason", "degraded"),
		shedQueueFull: r.Counter(mShedTotal, "reason", "queue_full"),
		shedShedding:  r.Counter(mShedTotal, "reason", "shedding"),
		shedDeadline:  r.Counter(mShedTotal, "reason", "deadline"),

		cacheHits:          r.Counter(mCacheHits),
		cacheMisses:        r.Counter(mCacheMisses),
		cacheEvictions:     r.Counter(mCacheEvictions),
		cacheInvalidations: r.Counter(mCacheInvalidations),
		cacheEntries:       r.Gauge(mCacheEntries),

		wireBatches:      r.Counter(mWireBatches),
		wireRows:         r.Counter(mWireRows),
		wireDecodeErrors: r.Counter(mWireDecodeErrors),
		// Batch sizes span 1..maxWireRows; log-scale buckets from 1 up.
		wireBatchRows: r.Histogram(mWireBatchRows, obs.HistogramOpts{Start: 1, Growth: 2, Count: 14}),
		wireBufMisses: r.Counter(mWireBufMisses),

		annRetries:    r.Counter(mAnnRetries),
		annTimeouts:   r.Counter(mAnnTimeouts),
		annFailed:     r.Counter(mAnnFailed),
		annFallback:   r.Counter(mAnnFallback),
		breakerState:  r.Gauge(mBreakerState),
		periodPartial: r.Counter(mPeriodPartial),
		telemetryDeg:  r.Counter(mTelemetryDeg),
	}
	// Pre-create one histogram per period stage so /metrics shows the full
	// stage set from startup, not only after the first period.
	for _, st := range warper.StageNames {
		r.Histogram(mStageSeconds, obs.LatencyOpts(), "stage", st)
	}
	return m
}

// requestDone records one finished HTTP request.
func (m *Metrics) requestDone(handler string, code int, d time.Duration) {
	m.Reg.Counter(mReqTotal, "handler", handler, "code", strconv.Itoa(code)).Inc()
	m.Reg.Histogram(mReqSeconds, obs.LatencyOpts(), "handler", handler).Observe(d.Seconds())
}

// PeriodStage implements warper.Observer.
func (m *Metrics) PeriodStage(stage string, d time.Duration) {
	m.Reg.Histogram(mStageSeconds, obs.LatencyOpts(), "stage", stage).Observe(d.Seconds())
	if m.rec != nil {
		m.rec.noteStage(stage, d)
	}
}

// PeriodDone implements warper.Observer.
func (m *Metrics) PeriodDone(st warper.PeriodStats) {
	if m.rec != nil {
		m.rec.periodDone(st)
	}
	m.periods.Inc()
	m.generated.Add(int64(st.Generated))
	m.annotated.Add(int64(st.Annotated))
	if st.Updated {
		m.updates.Inc()
	}
	if st.EarlyStopped {
		m.earlyStop.Inc()
	}
	m.poolSize.Set(float64(st.PoolSize))
	m.labeled.Set(float64(st.Labeled))
	m.pi.Set(st.Pi)
	m.gamma.Set(float64(st.Gamma))
	m.deltaM.Set(st.DeltaM)
	m.deltaJS.Set(st.DeltaJS)
	m.trained.Add(int64(st.TrainedSamples))
	if s := st.Busy.Seconds(); s > 0 && st.TrainedSamples > 0 {
		m.trainTput.Set(float64(st.TrainedSamples) / s)
	}
	if st.Partial {
		m.periodPartial.Inc()
	}
	m.annFailed.Add(int64(st.AnnotateFailed))
	if st.UsedFallback {
		m.annFallback.Inc()
	}
	if st.TelemetryDegraded {
		m.telemetryDeg.Inc()
	}
}

// ResilienceEvents returns an Events seam that turns resilience wrapper
// callbacks into the warper_annotate_* and warper_breaker_state metrics.
// Wire it into resilience.Wrap when installing a resilient source on the
// served adapter.
func (m *Metrics) ResilienceEvents() resilience.Events {
	return resilience.Events{
		Retry:   func(int, error) { m.annRetries.Inc() },
		Timeout: func(int) { m.annTimeouts.Inc() },
		BreakerState: func(s resilience.State) {
			// Export the breaker state with a stable encoding: 0 closed,
			// 1 open, 2 half-open (the resilience.State values).
			m.breakerState.Set(float64(s))
			if m.health != nil {
				// An open annotation breaker is a degraded-health signal:
				// the adapter cannot repair the model right now, so serving
				// should stop betting on a fresh one. Half-open probes count
				// as open until they succeed.
				m.health.breakerOpen.Store(s != resilience.Closed)
			}
			if m.rec != nil {
				m.rec.journal.Append("breaker", 0, map[string]any{"state": s.String()})
			}
		},
	}
}
