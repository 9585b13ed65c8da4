package serve

import (
	"encoding/json"
	"html/template"
	"net/http"
	"time"

	"warper/internal/obs"
)

// This file wires the obs flight-recorder primitives into the server: the
// sampled request tracer behind /debug/traces, the adaptation event journal
// behind /debug/events, the windowed-telemetry ring and rolling q-error
// drift watch behind /statusz and the warper_drift_* gauges. The recorder
// is pure read-side plumbing — nothing here runs on the estimate hot path
// unless the request was sampled.

// Flight-recorder defaults, overridable through Options.
const (
	defaultTraceBuf    = 64
	defaultJournalCap  = 256
	defaultDriftWindow = 5 * time.Minute
	defaultExemplars   = 8
	// recorderWindow is the recent-metrics window rendered on /statusz.
	recorderWindow = time.Minute
)

// flightRecorder bundles the drift flight recorder's moving parts and their
// HTTP handlers.
type flightRecorder struct {
	tracer    *obs.Tracer
	journal   *obs.Journal
	windows   *obs.Windows
	drift     *obs.DriftWatch
	exemplars *obs.Exemplars
	met       *Metrics

	// onDriftAlarm, when non-nil, runs on every DriftRaised transition.
	// NewWithOptions points it at the estimate-cache flush under
	// Options.CacheFlushOnAlarm: the cached pre-drift answers are exactly
	// what would keep masking the drift the watch just detected.
	onDriftAlarm func()
}

// newFlightRecorder builds the recorder from options.
func newFlightRecorder(met *Metrics, opts Options) *flightRecorder {
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
		windows:   obs.NewWindows(met.Reg, recorderWindow),
		drift:     obs.NewDriftWatch(window, opts.DriftAlarmGMQ),
		exemplars: obs.NewExemplars(defaultExemplars),
		met:       met,
	}
}

// feedback folds one ground-truth observation into the drift watch and the
// worst-q-error exemplar set, emitting journal events on alarm transitions.
// Called from the feedback handler — never from /estimate.
func (r *flightRecorder) feedback(q float64, ex obs.Exemplar, now time.Time) {
	st, tr := r.drift.Observe(q, now)
	r.applyDriftTransition(st, tr)
	r.exemplars.OfferQError(ex)
	r.windows.Tick(now)
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
		r.journal.Append("drift_alarm", 0, map[string]any{
			"window_gmq": st.WindowGMQ,
			"count":      st.Count,
			"threshold":  st.Threshold,
		})
		if r.onDriftAlarm != nil {
			r.onDriftAlarm()
		}
	case obs.DriftCleared:
		r.met.driftAlarm.Set(0)
		r.journal.Append("drift_clear", 0, map[string]any{
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
	r.windows.Tick(time.Now())
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
	Window     obs.WindowView
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
invalidations {{.CacheInvalidations}} (model swaps + flushes; a swap's generation bump
invalidates every entry without a scan)</p>
{{else}}<p>disabled (Options.EstimateCache is off)</p>{{end}}

<h2>Drift watch</h2>
{{if .DriftOn}}
<p>{{if .Drift.Alarm}}<span class="alarm">ALARM</span> since {{ago .Now .Drift.AlarmSince}}{{else}}<span class="ok">ok</span>{{end}}
— window GMQ {{printf "%.3f" .Drift.WindowGMQ}} over {{.Drift.Count}} obs
(threshold {{printf "%.2f" .Drift.Threshold}}, window {{.Drift.Window}});
q-error p50/p95/p99: the warper_qerror_ratio row of the recent window below</p>
{{else}}<p>disabled (set -drift-alarm-gmq)</p>{{end}}

<h2>Recent window ({{printf "%.0fs" .Window.Seconds}})</h2>
<table><tr><th class="l">metric</th><th>kind</th><th>window</th><th>rate/s</th><th>p50</th><th>p95</th><th>p99</th><th>lifetime</th></tr>
{{range .Window.Stats}}<tr><td class="l">{{.Name}}</td><td>{{.Kind}}</td>
<td>{{if eq .Kind "counter"}}{{.Delta}}{{else if eq .Kind "gauge"}}{{printf "%.4g" .Value}}{{else}}{{.Count}}{{end}}</td>
<td>{{if eq .Kind "counter"}}{{printf "%.2f" .Rate}}{{end}}</td>
<td>{{if eq .Kind "histogram"}}{{printf "%.4g" .P50}}{{end}}</td>
<td>{{if eq .Kind "histogram"}}{{printf "%.4g" .P95}}{{end}}</td>
<td>{{if eq .Kind "histogram"}}{{printf "%.4g" .P99}}{{end}}</td>
<td>{{printf "%.6g" .Lifetime}}</td></tr>
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

// handleStatusz renders the human-facing flight-recorder page: recent
// window, drift state, exemplars and the journal tail, stdlib-only HTML.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	s.Tick(now)

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
		Window:     s.rec.windows.View(now),
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

// withTick wraps a read-side handler so serving it also advances the
// windowed-telemetry ring — the pull-based design's only clock — and lets
// the health machine reconsider on the fresh window.
func (s *Server) withTick(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Tick(time.Now())
		h.ServeHTTP(w, r)
	})
}

// Tick advances the windowed-telemetry ring and re-evaluates serving health
// as of now. Exported for embedders (and the overload benchmark) that serve
// estimates in-process and therefore never hit the HTTP tick paths; HTTP
// deployments get ticks for free from scrapes, /statusz, feedback and
// period edges. Never called from the estimate hot path.
func (s *Server) Tick(now time.Time) {
	s.rec.windows.Tick(now)
	s.evalHealth(now)
}

// evalHealth runs one (throttled) health evaluation: gather the signals —
// windowed checkout-wait p99, live admission-queue depth, breaker state,
// in-flight swap age — and let the tracker classify them with hysteresis.
func (s *Server) evalHealth(now time.Time) {
	if !s.health.due(now) {
		return
	}
	sig := healthSignals{
		queueDepth:  s.pool.queueDepth(),
		breakerOpen: s.health.breakerOpen.Load(),
	}
	if start := s.health.swapStart.Load(); start != 0 {
		sig.swapAge = now.Sub(time.Unix(0, start))
	}
	// The windowed view walks the whole registry; due() has already bounded
	// how often that happens.
	for _, st := range s.rec.windows.View(now).Stats {
		if st.Name == mCheckoutWait {
			sig.waitP99 = st.P99
			break
		}
	}
	s.health.eval(sig)
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
