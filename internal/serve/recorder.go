package serve

import (
	"context"
	"encoding/json"
	"html/template"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"warper/internal/obs"
)

// This file wires the obs flight-recorder primitives into the server: the
// sampled request tracer behind /debug/traces, the adaptation event journal
// behind /debug/events (and, through event, the server log), and the rolling
// q-error drift watch behind /statusz and the warper_drift_* gauges. The
// recorder is pure read-side plumbing — nothing here runs on the estimate
// hot path unless the request was sampled.

// Flight-recorder defaults, overridable through Options.
const (
	defaultTraceBuf    = 64
	defaultJournalCap  = 256
	defaultDriftWindow = 5 * time.Minute
	defaultExemplars   = 8
)

// flightRecorder bundles the drift flight recorder's moving parts and their
// HTTP handlers.
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
	buf := opts.TraceBuf
	if buf <= 0 {
		buf = defaultTraceBuf
	}
	window := opts.DriftWindow
	if window <= 0 {
		window = defaultDriftWindow
	}
	return &flightRecorder{
		tracer:    obs.NewTracer(opts.TraceSample, buf),
		journal:   obs.NewJournal(defaultJournalCap),
		drift:     obs.NewDriftWatch(window, opts.DriftAlarmGMQ),
		exemplars: obs.NewExemplars(defaultExemplars),
		met:       met,
		logger:    logger,
	}
}

// event records one lifecycle event — the only way one is recorded: it is
// appended to the journal behind /debug/events and logged, under the same
// kind and with the same fields, through the server's logger, so an operator
// tailing warperd sees what the journal sees. fields may be nil; the map is
// retained by the journal, so callers must not mutate it afterwards.
func (r *flightRecorder) event(level slog.Level, kind string, traceID uint64, fields map[string]any) {
	r.journal.Append(kind, traceID, fields)
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

// handleTraces serves the retained traces as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto.
func (r *flightRecorder) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w, r.tracer.Snapshot()); err != nil {
		// Headers are gone; nothing to repair. The instrument layer logged
		// worse failures than a half-written debug dump.
		return
	}
}

// eventsResponse is the /debug/events payload.
type eventsResponse struct {
	// Total counts events ever journaled; Total - len(Events) were evicted
	// by the bounded buffer.
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
}

// handleEvents serves the adaptation event journal, oldest-first.
func (r *flightRecorder) handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := eventsResponse{Total: r.journal.Total(), Events: r.journal.Snapshot()}
	if resp.Events == nil {
		resp.Events = []obs.Event{}
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// statuszData feeds the /statusz template.
type statuszData struct {
	Now        time.Time
	Status     statusResponse
	Health     HealthState
	QueueDepth int64
	Metrics    map[string]any
	Drift      obs.DriftState
	WorstQ     []obs.Exemplar
	Slowest    []obs.Exemplar
	Events     []obs.Event
	Traces     int
	Sampled    int64
	Dropped    int64
	Journal    uint64
	Evicted    uint64
	TraceOn    bool
	DriftOn    bool

	// Estimate-cache panel.
	CacheOn            bool
	CacheEntries       int64
	CacheCap           int
	CacheHits          int64
	CacheMisses        int64
	CacheHitPct        float64
	CacheEvictions     int64
	CacheInvalidations int64
}

var statuszTmpl = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"ms":  func(s float64) string { return template.HTMLEscapeString(formatMillis(s)) },
	"ago": func(now, t time.Time) string { return formatAgo(now, t) },
	// hist picks the histogram rows out of Registry.Snapshot's values.
	"hist": func(v any) *obs.HistogramSnapshot {
		if h, ok := v.(obs.HistogramSnapshot); ok {
			return &h
		}
		return nil
	},
}).Parse(`<!DOCTYPE html>
<html><head><title>warperd statusz</title><style>
body{font-family:monospace;margin:2em;background:#fafafa;color:#222}
h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.5em;border-bottom:1px solid #ccc}
table{border-collapse:collapse;margin:0.5em 0}
td,th{border:1px solid #ddd;padding:2px 8px;text-align:right}
th{background:#eee}td.l,th.l{text-align:left}
.alarm{color:#b00020;font-weight:bold}.ok{color:#1b5e20}
</style></head><body>
<h1>warperd flight recorder</h1>
<p>model={{.Status.Model}} periods={{.Status.Periods}} buffered={{.Status.Buffered}}
pi={{printf "%.3f" .Status.Pi}} gamma={{.Status.Gamma}}</p>

<h2>Serving health</h2>
<p>state {{if eq .Health 0}}<span class="ok">healthy</span>{{else}}<span class="alarm">{{.Health}}</span>{{end}}
— admission queue depth {{.QueueDepth}}; degraded answers come from the fallback ladder,
sheds answer 429 (see estimate_fallback_total / estimate_shed_total below)</p>

<h2>Estimate cache</h2>
{{if .CacheOn}}<p>entries {{.CacheEntries}}/{{.CacheCap}} — hits {{.CacheHits}}, misses {{.CacheMisses}}
(hit rate {{printf "%.1f" .CacheHitPct}}%), evictions {{.CacheEvictions}},
invalidations {{.CacheInvalidations}} (model swaps; a swap's generation bump
invalidates every entry without a scan)</p>
{{else}}<p>disabled (Options.EstimateCache is off)</p>{{end}}

<h2>Drift watch</h2>
{{if .DriftOn}}
<p>{{if .Drift.Alarm}}<span class="alarm">ALARM</span> since {{ago .Now .Drift.AlarmSince}}{{else}}<span class="ok">ok</span>{{end}}
— window GMQ {{printf "%.3f" .Drift.WindowGMQ}} over {{.Drift.Count}} obs
(threshold {{printf "%.2f" .Drift.Threshold}}, window {{.Drift.Window}});
q-error p50/p95/p99: the warper_qerror_ratio row of the metric table below</p>
{{else}}<p>disabled (set -drift-alarm-gmq)</p>{{end}}

<h2>Metrics (lifetime)</h2>
<p>Every registry series since start: a counter's or gauge's value, a histogram's count and quantiles —
what <a href="/debug/vars">/debug/vars</a> serves as JSON. Rates and windowed quantiles are a scraper's
subtraction of two <a href="/metrics">/metrics</a> reads; the server keeps none.</p>
<table><tr><th class="l">metric</th><th>value / count</th><th>p50</th><th>p95</th><th>p99</th></tr>
{{range $name, $v := .Metrics}}<tr><td class="l">{{$name}}</td>
{{with hist $v}}<td>{{.Count}}</td><td>{{printf "%.4g" .P50}}</td><td>{{printf "%.4g" .P95}}</td><td>{{printf "%.4g" .P99}}</td>
{{else}}<td>{{$v}}</td><td></td><td></td><td></td>{{end}}</tr>
{{end}}</table>

<h2>Worst q-error exemplars</h2>
{{if .WorstQ}}<table><tr><th>q-error</th><th>estimate</th><th>truth</th><th class="l">predicate</th><th class="l">age</th></tr>
{{range .WorstQ}}<tr><td>{{printf "%.2f" .QError}}</td><td>{{printf "%.1f" .Estimate}}</td><td>{{printf "%.1f" .Truth}}</td><td class="l">{{.Predicate}}</td><td class="l">{{ago $.Now .Time}}</td></tr>
{{end}}</table>{{else}}<p>none yet (needs feedback with ground truth)</p>{{end}}

<h2>Slowest sampled requests</h2>
{{if .Slowest}}<table><tr><th>latency</th><th>trace</th><th class="l">predicate</th><th class="l">age</th></tr>
{{range .Slowest}}<tr><td>{{ms .Latency}}</td><td>{{.TraceID}}</td><td class="l">{{.Predicate}}</td><td class="l">{{ago $.Now .Time}}</td></tr>
{{end}}</table>{{else}}<p>none yet{{if not $.TraceOn}} (tracing off; set -trace-sample){{end}}</p>{{end}}

<h2>Request tracing</h2>
<p>{{if .TraceOn}}retained {{.Traces}} traces ({{.Sampled}} sampled, {{.Dropped}} dropped) —
<a href="/debug/traces">/debug/traces</a> loads in chrome://tracing{{else}}off (set -trace-sample){{end}}</p>

<h2>Adaptation journal ({{.Journal}} events, {{.Evicted}} evicted) — <a href="/debug/events">/debug/events</a></h2>
{{if .Events}}<table><tr><th>seq</th><th class="l">age</th><th class="l">kind</th><th>trace</th><th class="l">fields</th></tr>
{{range .Events}}<tr><td>{{.Seq}}</td><td class="l">{{ago $.Now .Time}}</td><td class="l">{{.Kind}}</td><td>{{if .TraceID}}{{.TraceID}}{{end}}</td><td class="l">{{range $k, $v := .Fields}}{{$k}}={{$v}} {{end}}</td></tr>
{{end}}</table>{{else}}<p>no lifecycle events yet</p>{{end}}
</body></html>
`))

// statuszEventTail bounds the journal rows rendered on /statusz (the full
// journal is one click away on /debug/events).
const statuszEventTail = 40

// handleStatusz renders the human-facing flight-recorder page: health,
// drift state, the lifetime metric table, exemplars and the journal tail,
// stdlib-only HTML. It renders health, so it evaluates it first.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	s.evalHealth(now)

	events := s.rec.journal.Snapshot()
	total := s.rec.journal.Total()
	evicted := total - uint64(len(events))
	if len(events) > statuszEventTail {
		events = events[len(events)-statuszEventTail:]
	}
	// Newest first reads better on a debug page.
	for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
		events[i], events[j] = events[j], events[i]
	}
	traces := s.rec.tracer.Snapshot()
	data := statuszData{
		Now:        now,
		Status:     s.statusNow(),
		Health:     s.health.current(),
		QueueDepth: s.pool.queueDepth(),
		Metrics:    s.met.Reg.Snapshot(),
		Drift:      s.rec.driftState(now),
		WorstQ:     s.rec.exemplars.WorstQ(),
		Slowest:    s.rec.exemplars.Slowest(),
		Events:     events,
		Traces:     len(traces),
		Sampled:    s.rec.tracer.Sampled.Load(),
		Dropped:    s.rec.tracer.Dropped.Load(),
		Journal:    total,
		Evicted:    evicted,
		TraceOn:    s.rec.tracer.Sampling(),
		DriftOn:    s.rec.drift.Threshold() > 0,
	}
	if s.cache != nil {
		data.CacheOn = true
		data.CacheEntries = s.cache.entries()
		data.CacheCap = s.cache.capacity
		data.CacheHits = s.met.cacheHits.Value()
		data.CacheMisses = s.met.cacheMisses.Value()
		if n := data.CacheHits + data.CacheMisses; n > 0 {
			data.CacheHitPct = 100 * float64(data.CacheHits) / float64(n)
		}
		data.CacheEvictions = s.met.cacheEvictions.Value()
		data.CacheInvalidations = s.met.cacheInvalidations.Value()
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statuszTmpl.Execute(w, data); err != nil {
		s.logger.Error("statusz render failed", "err", err)
	}
}

// handleMetrics serves the Prometheus exposition. It renders
// serve_health_state, so it evaluates health first: a scraper is a clock
// even for a server whose estimates never leave the fast path.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.evalHealth(time.Now())
	s.met.Reg.PrometheusHandler().ServeHTTP(w, r)
}

// formatMillis renders seconds as a millisecond string.
func formatMillis(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// formatAgo renders "how long ago" for the statusz tables.
func formatAgo(now, t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	d := now.Sub(t)
	if d < 0 {
		d = 0
	}
	return d.Round(time.Second).String() + " ago"
}
