package serve

import (
	"context"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"warper/internal/obs"
)

// This file wires the obs flight-recorder primitives into the server — the
// sampled request tracer, the adaptation event journal (mirrored, through
// event, to the server log) and the rolling q-error drift watch behind the
// warper_drift_* gauges — and reports them in the one status document that
// /status serves. The recorder is pure read-side plumbing —
// nothing here runs on the estimate hot path unless the request was sampled.

// Flight-recorder sizes; only the drift window is an option.
const (
	traceBuf           = 64 // finished traces /status retains
	defaultJournalCap  = 256
	defaultDriftWindow = 5 * time.Minute
	defaultExemplars   = 8
)

// flightRecorder bundles the drift flight recorder's moving parts.
type flightRecorder struct {
	tracer    *obs.Tracer
	journal   *obs.Journal
	drift     *obs.DriftWatch
	exemplars *obs.Exemplars
	met       *Metrics
	logger    *slog.Logger
}

// newFlightRecorder builds the recorder from options; lifecycle events are
// logged through logger.
func newFlightRecorder(met *Metrics, logger *slog.Logger, opts Options) *flightRecorder {
	window := opts.DriftWindow
	if window <= 0 {
		window = defaultDriftWindow
	}
	return &flightRecorder{
		tracer:    obs.NewTracer(opts.TraceSample, traceBuf),
		journal:   obs.NewJournal(defaultJournalCap),
		drift:     obs.NewDriftWatch(window, opts.DriftAlarmGMQ),
		exemplars: obs.NewExemplars(defaultExemplars),
		met:       met,
		logger:    logger,
	}
}

// event records one lifecycle event: it is appended to the journal /status
// reports and logged, under the same kind and with the same fields, through
// the server's logger, so an operator tailing warperd sees what the journal
// sees. fields may be nil; the map is retained by the journal, so callers
// must not mutate it afterwards. A caller that must journal under a lock
// appends to the journal itself and calls log once it has unlocked.
func (r *flightRecorder) event(level slog.Level, kind string, traceID uint64, fields map[string]any) {
	r.journal.Append(kind, traceID, fields)
	r.log(level, kind, traceID, fields)
}

// log is event's server-log half: one line at level, with fields as sorted
// attributes.
func (r *flightRecorder) log(level slog.Level, kind string, traceID uint64, fields map[string]any) {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys) // map order would shuffle the attributes from line to line
	attrs := make([]slog.Attr, 0, len(keys)+1)
	if traceID != 0 {
		attrs = append(attrs, slog.Uint64("trace_id", traceID))
	}
	for _, k := range keys {
		attrs = append(attrs, slog.Any(k, fields[k]))
	}
	r.logger.LogAttrs(context.Background(), level, kind, attrs...)
}

// feedback folds one ground-truth observation into the drift watch and the
// worst-q-error exemplar set, emitting journal events on alarm transitions.
// Called from the feedback handler — never from /estimate.
func (r *flightRecorder) feedback(q float64, ex obs.Exemplar, now time.Time) {
	st, tr := r.drift.Observe(q, now)
	r.applyDriftTransition(st, tr)
	r.exemplars.OfferQError(ex)
}

// driftState reads the drift watch, rolling its window to now. Rolling can
// itself produce an alarm edge — typically the alarm clearing because
// feedback stopped and the bad slots aged out — so reads apply transitions
// exactly like feedback does: the journal and the alarm gauge stay truthful
// even when the q-error stream goes quiet.
func (r *flightRecorder) driftState(now time.Time) obs.DriftState {
	st, tr := r.drift.State(now)
	r.applyDriftTransition(st, tr)
	return st
}

// applyDriftTransition turns a drift-watch reading into gauge updates and,
// on alarm edges, journal events.
func (r *flightRecorder) applyDriftTransition(st obs.DriftState, tr obs.DriftTransition) {
	r.met.driftGMQ.Set(st.WindowGMQ)
	switch tr {
	case obs.DriftRaised:
		r.met.driftAlarm.Set(1)
		r.event(slog.LevelWarn, "drift_alarm", 0, map[string]any{
			"window_gmq": st.WindowGMQ,
			"count":      st.Count,
			"threshold":  st.Threshold,
		})
	case obs.DriftCleared:
		r.met.driftAlarm.Set(0)
		r.event(slog.LevelInfo, "drift_clear", 0, map[string]any{
			"window_gmq": st.WindowGMQ,
			"count":      st.Count,
		})
	}
}

// statusDoc is the one status document, which GET /status serves as JSON.
// Its names are the ledger's and the metric
// families' (TestStatusFieldsDocumented holds it to README).
type statusDoc struct {
	Model      string  `json:"model"`
	Generation uint64  `json:"generation"`
	Periods    int     `json:"periods"`
	Buffered   int     `json:"buffered"`
	PoolSize   int     `json:"pool_size"`
	Labeled    int     `json:"labeled"`
	Pi         float64 `json:"pi"`
	Gamma      int     `json:"gamma"`
	// Costs is the adapter's cost ledger in seconds, keyed by its own names:
	// pretrain, the five StageNames and annotate_retry, once charged.
	Costs      map[string]float64 `json:"costs"`
	Health     string             `json:"health"`
	QueueDepth int64              `json:"queue_depth"`
	Cache      cacheStatus        `json:"cache"`
	Drift      obs.DriftState     `json:"drift"`
	WorstQ     []obs.Exemplar     `json:"worst_q"`
	Journal    journalStatus      `json:"journal"`
	Traces     []obs.Trace        `json:"traces"`
}

type cacheStatus struct {
	Entries  int64 `json:"entries"`
	Capacity int   `json:"capacity"`
	// Declined counts inserts the admission doorkeeper turned away: first
	// sightings that would have evicted a live entry.
	Declined int64 `json:"declined"`
}

type journalStatus struct {
	// Total counts events ever journaled; Total - len(Events) were evicted
	// by the bounded buffer.
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
}

// statusNow builds the status document: the adapter state cached after the
// last period, the live buffer, generation, health, cache, drift watch,
// journal and trace ring. It renders health, so it evaluates it first, as
// /metrics does.
func (s *Server) statusNow() statusDoc {
	now := time.Now()
	s.evalHealth(now)
	s.mu.Lock()
	d := s.status
	d.Buffered, d.Periods = len(s.buffer), s.periods
	s.mu.Unlock()
	d.Generation = s.pool.generation()
	d.Health = s.health.current().String()
	d.QueueDepth = s.pool.queueDepth()
	d.Cache = cacheStatus{Entries: int64(s.met.cacheEntries.Value()), Capacity: s.cache.capacity, Declined: s.cache.declined.Load()}
	d.Drift = s.rec.driftState(now)
	d.WorstQ = s.rec.exemplars.WorstQ()
	d.Journal = journalStatus{Total: s.rec.journal.Total(), Events: s.rec.journal.Snapshot()}
	d.Traces = s.rec.tracer.Snapshot()
	return d
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.statusNow())
}

// handleMetrics serves the Prometheus exposition. It renders
// serve_health_state, so it evaluates health first: a scraper is a clock
// even for a server whose estimates never leave the fast path.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.evalHealth(time.Now())
	s.met.Reg.PrometheusHandler().ServeHTTP(w, r)
}
