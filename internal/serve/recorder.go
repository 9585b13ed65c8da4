package serve

import (
	"context"
	"html/template"
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
// /status and /statusz serve. The recorder is pure read-side plumbing —
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

// statusDoc is the one status document: GET /status serves it as JSON and
// /statusz renders it as HTML. Its names are the ledger's and the metric
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
	d.Cache = cacheStatus{Entries: int64(s.met.cacheEntries.Value()), Capacity: s.cache.capacity}
	d.Drift = s.rec.driftState(now)
	d.WorstQ = s.rec.exemplars.WorstQ()
	d.Journal = journalStatus{Total: s.rec.journal.Total(), Events: s.rec.journal.Snapshot()}
	d.Traces = s.rec.tracer.Snapshot()
	return d
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.statusNow())
}

var statuszTmpl = template.Must(template.New("statusz").Parse(`<!DOCTYPE html>
<html><head><title>warperd statusz</title><style>
body{font-family:monospace;margin:2em;background:#fafafa;color:#222}
h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.5em;border-bottom:1px solid #ccc}
table{border-collapse:collapse;margin:0.5em 0}
td,th{border:1px solid #ddd;padding:2px 8px;text-align:right}
th{background:#eee}td.l,th.l{text-align:left}
.alarm{color:#b00020;font-weight:bold}.ok{color:#1b5e20}
</style></head><body>
<h1>warperd flight recorder</h1>
<p>model={{.Model}} generation={{.Generation}} periods={{.Periods}} buffered={{.Buffered}}
pool_size={{.PoolSize}} labeled={{.Labeled}} pi={{printf "%.3f" .Pi}} gamma={{.Gamma}} —
this page renders <a href="/status">/status</a>; every metric is on <a href="/metrics">/metrics</a></p>

<h2>Costs (seconds)</h2>
<table>{{range $name, $secs := .Costs}}<tr><td class="l">{{$name}}</td><td>{{printf "%.3f" $secs}}</td></tr>
{{end}}</table>

<h2>Serving health</h2>
<p>state {{if eq .Health "healthy"}}<span class="ok">healthy</span>{{else}}<span class="alarm">{{.Health}}</span>{{end}}
— admission queue depth {{.QueueDepth}}</p>

<h2>Estimate cache</h2>
<p>entries {{.Cache.Entries}}/{{.Cache.Capacity}}</p>

<h2>Drift watch</h2>
{{if gt .Drift.Threshold 0.0}}
<p>{{if .Drift.Alarm}}<span class="alarm">ALARM</span> since {{.Drift.AlarmSince.Format "15:04:05"}}{{else}}<span class="ok">ok</span>{{end}}
— window GMQ {{printf "%.3f" .Drift.WindowGMQ}} over {{.Drift.Count}} obs
(threshold {{printf "%.2f" .Drift.Threshold}}, window {{.Drift.Window}})</p>
{{else}}<p>disabled (set -drift-alarm-gmq)</p>{{end}}

<h2>Worst q-error exemplars</h2>
{{if .WorstQ}}<table><tr><th>q-error</th><th>estimate</th><th>truth</th><th class="l">predicate</th><th class="l">time</th></tr>
{{range .WorstQ}}<tr><td>{{printf "%.2f" .QError}}</td><td>{{printf "%.1f" .Estimate}}</td><td>{{printf "%.1f" .Truth}}</td><td class="l">{{.Predicate}}</td><td class="l">{{.Time.Format "15:04:05"}}</td></tr>
{{end}}</table>{{else}}<p>none yet (needs feedback with ground truth)</p>{{end}}

<h2>Sampled request traces</h2>
{{if .Traces}}<table><tr><th>id</th><th class="l">handler</th><th>total</th><th>batch</th><th>generation</th><th class="l">stages</th></tr>
{{range .Traces}}<tr><td>{{.ID}}</td><td class="l">{{.Handler}}</td><td>{{.Total}}</td><td>{{.BatchSize}}</td><td>{{.Generation}}</td><td class="l">{{range .Stages}}{{.Name}}={{.Dur}} {{end}}</td></tr>
{{end}}</table>{{else}}<p>none (-trace-sample N traces one request in N; 0 is off)</p>{{end}}

<h2>Adaptation journal ({{.Journal.Total}} events, {{len .Journal.Events}} retained)</h2>
{{with .Journal.Events}}<table><tr><th>seq</th><th class="l">time</th><th class="l">kind</th><th>trace</th><th class="l">fields</th></tr>
{{range .}}<tr><td>{{.Seq}}</td><td class="l">{{.Time.Format "15:04:05.000"}}</td><td class="l">{{.Kind}}</td><td>{{if .TraceID}}{{.TraceID}}{{end}}</td><td class="l">{{range $k, $v := .Fields}}{{$k}}={{$v}} {{end}}</td></tr>
{{end}}</table>{{else}}<p>no lifecycle events yet</p>{{end}}
</body></html>
`))

// handleStatusz renders the status document as a stdlib-only HTML page.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statuszTmpl.Execute(w, s.statusNow()); err != nil {
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
