package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadNames lists the benchmark's workloads in report order.
var workloadNames = []string{"json_scalar", "wire_unique", "wire_zipf", "adapt_drift"}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	clients  int // closed-loop connections of a serving workload
	sc       scale
	outDir   string // where a traced run writes its span file
	// wrap, nil outside the validation test, is put around the server's
	// handler to inject a slowdown of known size.
	wrap func(http.Handler) http.Handler
}

// report is everything one run measured.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Clients    int     `json:"clients"`
	FrameRows  int     `json:"frame_rows"`
	WindowS    float64 `json:"window_s"`
	Windows    int     `json:"windows"`
	Samples    int     `json:"samples"`
	RunS       float64 `json:"run_s"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Violations are broken workload invariants (a cache-bypassing workload
	// that hit the cache, a fallback answer, a noisy run): each makes the
	// run incorrect or, for noise, only flags it.
	Violations []string `json:"violations,omitempty"`
	Flags      []string `json:"flags,omitempty"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	Layers   map[string]float64 `json:"layers"`
	// Trajectory is the mode/generated/picked/annotated sequence of the
	// run's adaptation periods.
	Trajectory []string `json:"trajectory,omitempty"`
	// The per-window and per-period readings behind the reduced metrics,
	// for judging how a noisy run was noisy.
	WindowPerSec []float64 `json:"window_estimates_per_s"`
	WindowP50    []float64 `json:"window_request_p50_us"`
	WindowP95    []float64 `json:"window_request_p95_us"`
	WindowEcho   []float64 `json:"window_echo_us"`
	PeriodEcho   []float64 `json:"period_echo_us,omitempty"`
	PeriodMs     []float64 `json:"period_ms,omitempty"`
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Violations) == 0 }

// mark is what the harness reads at a phase boundary: the server's metrics
// and the process's resource counters.
type mark struct {
	s snapshot
	p procStats
}

func takeMark(c *conn) (mark, error) {
	s, err := scrape(c)
	return mark{s, readProc()}, err
}

// run executes one workload once.
func run(cfg runConfig) (*report, error) {
	began := time.Now()
	sc := cfg.sc
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Clients: cfg.clients, FrameRows: sc.FrameRows, WindowS: sc.Window.Seconds(),
		EndToEnd: map[string]float64{}, Layers: map[string]float64{},
	}

	fx, err := buildFixture(sc, cfg.wrap)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	in, err := buildStream(cfg.workload, fx, fx.srv.Estimator().Clone(), sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.EndToEnd["setup_s"] = time.Since(began).Seconds()

	echo := newEchoServer()
	defer echo.close()
	ctl, err := dial(fx.addr)
	if err != nil {
		return nil, err
	}
	defer ctl.close()
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
	}

	// A serving workload's measured phase is its windows, with every answer
	// held to the oracle.
	adapting := cfg.workload == "adapt_drift"
	before, err := takeMark(ctl)
	if err != nil {
		return nil, err
	}
	var load *loadResult
	windowsEcho := newEchoLog()
	afterLoad := before
	if !adapting {
		spec := closedLoop(fx, in, cfg.clients, true, sc)
		spec.echoAddr, spec.echo, spec.spans = echo.addr, windowsEcho, spans
		if load, err = runLoad(spec); err != nil {
			return nil, err
		}
		if afterLoad, err = takeMark(ctl); err != nil {
			return nil, err
		}
	}

	// Every workload then plays the adaptation script beside one closed-loop
	// client of its own stream: all of it on adapt_drift, where the client's
	// windows are the measured phase, and its first phases after a serving
	// workload, so that every run reports what a period costs and what
	// accuracy it reaches. Models swap under this client, so its answers only
	// have to be sane; the script's probes hold them to the served model.
	scriptEcho, phases := newEchoLog(), sc.ServingPhases
	bg := closedLoop(fx, in, 1, false, sc)
	bg.warmup, bg.windows = 0, 0
	if adapting {
		scriptEcho, phases = windowsEcho, sc.Phases
		bg.warmup, bg.spans = sc.Warmup, spans
	}
	bg.echoAddr, bg.echo = echo.addr, scriptEcho
	bg.gate, bg.stop = newGate(), make(chan struct{})
	// Three seconds per period is several times the script's pace on the
	// reference host: room enough for a slow one.
	bg.maxDuration = time.Duration(3*phases*sc.PeriodsPerPhase) * time.Second
	drv := newAdaptDriver(fx, ctl, scriptEcho, sc, cfg.seed, spans)
	type loadOut struct {
		res *loadResult
		err error
	}
	done := make(chan loadOut, 1)
	go func() {
		res, err := runLoad(bg)
		done <- loadOut{res, err}
	}()
	time.Sleep(bg.warmup) // the script starts when the client's windows do
	scriptErr := drv.script(phases, bg.gate.pause, bg.gate.unpause)
	close(bg.stop)
	beside := <-done
	if scriptErr != nil {
		return nil, scriptErr
	}
	if beside.err != nil {
		return nil, beside.err
	}
	afterScript, err := takeMark(ctl)
	if err != nil {
		return nil, err
	}
	if adapting {
		load, afterLoad, rep.Clients = beside.res, afterScript, 1
	} else {
		rep.Attempted, rep.Failed = beside.res.attempted, beside.res.failed
	}

	if cfg.trace {
		// The traced run's extra passes, on an idle server: the layer
		// ladder over the workload's own stream and the single-layer probes.
		in.want = oracle(fx.srv.Estimator().Clone(), in.preds) // periods swapped models since set-up
		n := sc.Ladder
		if in.rows > 1 {
			n /= 5 // a frame costs about ten scalar requests per rung
		}
		if err := runLadder(fx, in, n, ctl, spans, rep.Layers); err != nil {
			return nil, err
		}
		if err := layerProbes(fx, drv, spans, rep.Layers); err != nil {
			return nil, err
		}
	}

	// Release the harness's inputs before reading the live heap: what stays
	// reachable is what the system holds — table, models, replicas, cache,
	// pools, arenas — not the request bytes the clients sent.
	rows := in.rows
	in, bg = nil, loadSpec{}
	rep.EndToEnd["live_heap_mb"] = liveHeapMB()

	rep.Attempted += load.attempted + drv.attempted
	rep.Failed += load.failed + drv.failed
	perSec := gatedTimings(rep, load, drv, windowsEcho)
	servingLayers(rep, load, rows, before, afterLoad)
	if adapting {
		afterLoad = before // the script ran beside the windows, not after them
	}
	adaptLayers(rep, drv, afterLoad, afterScript)
	if cfg.trace {
		rep.Layers["bench.trace_overhead_ratio"] = 0 // a run of fewer than two windows cannot tell
		if load.windows >= 2 {
			rep.Layers["bench.trace_overhead_ratio"] = median(subset(perSec, true)) / median(subset(perSec, false))
		}
		rep.Layers["bench.spans"] = float64(len(spans.spans))
		rep.Layers["bench.spans_dropped"] = float64(spans.dropped)
		path := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
		if err := spans.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		logf("trace written to %s (%d spans, %d left out)", path, len(spans.spans), spans.dropped)
	}
	checkInvariants(rep)
	rep.RunS = time.Since(began).Seconds()
	return rep, nil
}

// gatedTimings reduces the windows and periods to the gated timing metrics:
// every per-window statistic is scaled to the reference host by the window's
// own echo time and the metric is the median over the windows; every
// period's wall time is scaled by the echo samples taken during it and the
// metric is the mean over the script. The raw window medians and the
// per-window readings sit beside them. It returns the scaled per-window
// throughputs.
func gatedTimings(rep *report, load *loadResult, drv *adaptDriver, windowsEcho *echoLog) []float64 {
	perSec := load.normalised(load.perSec, true)
	rep.EndToEnd["estimates_per_s"] = median(perSec)
	rep.EndToEnd["request_p50_us"] = median(load.normalised(load.p50, false))
	rep.EndToEnd["request_p95_us"] = median(load.normalised(load.p95, false))
	rawPeriod, normPeriod := drv.periodMeanMs()
	rep.EndToEnd["period_mean_ms"] = normPeriod
	rep.EndToEnd["adapt_gmq"] = drv.gmq()

	L := rep.Layers
	L["request_p99_us"] = median(load.normalised(load.p99, false))
	L["raw.estimates_per_s"] = median(load.perSec)
	L["raw.request_p50_us"] = median(load.p50)
	L["raw.request_p95_us"] = median(load.p95)
	L["raw.period_mean_ms"] = rawPeriod
	L["raw.window_cv"] = cv(load.perSec)
	L["bench.echo_us"] = median(load.echoUs) / echoRounds
	L["bench.echo_cv"] = cv(load.echoUs)
	L["bench.echo_samples_dropped"] = float64(windowsEcho.dropped + drv.echo.dropped)
	L["bench.window_cv"] = cv(perSec)
	L["bench.samples"] = float64(load.samples)
	L["bench.windows"] = float64(load.windows)

	rep.Windows, rep.Samples = load.windows, load.samples
	rep.WindowPerSec, rep.WindowP50, rep.WindowP95, rep.WindowEcho = load.perSec, load.p50, load.p95, load.echoUs
	for i, w := range drv.periodWall {
		rep.PeriodMs = append(rep.PeriodMs, float64(w)/1e6)
		rep.PeriodEcho = append(rep.PeriodEcho, drv.echo.between(drv.periodAt[i], drv.periodAt[i].Add(w)))
	}
	for _, o := range drv.trajectory {
		rep.Trajectory = append(rep.Trajectory, o.String())
	}
	return perSec
}

// servingLayers derives the serve/wire/process layer metrics of the
// measured phase from the two /metrics scrapes and resource readings around
// it. The scrapes bracket warm-up and windows alike, so per-request ratios
// divide by every request of that span.
func servingLayers(rep *report, load *loadResult, rows int, from, to mark) {
	s0, s1, p0, p1 := from.s, to.s, from.p, to.p
	L := rep.Layers
	reqs := math.Max(1, float64(load.attempted))
	hits := delta(s0, s1, "estimate_cache_hits_total")
	misses := delta(s0, s1, "estimate_cache_misses_total")
	L["serve.cache_hits"] = hits
	L["serve.cache_misses"] = misses
	L["serve.cache_hit_ratio"] = hits / math.Max(1, hits+misses)
	L["serve.cache_evictions"] = delta(s0, s1, "estimate_cache_evictions_total")
	L["serve.cache_invalidations"] = delta(s0, s1, "estimate_cache_invalidations_total")
	L["serve.checkouts"] = delta(s0, s1, "warper_replica_checkouts_total")
	L["serve.checkout_waits"] = delta(s0, s1, "warper_replica_checkout_wait_seconds_count")
	L["serve.checkout_wait_p95_us"] = histQuantileUs(s0, s1, "warper_replica_checkout_wait_seconds", "", 0.95)
	L["serve.replica_refreshes"] = delta(s0, s1, "warper_replica_refreshes_total")
	L["serve.fallback_answers"] = sumPrefix(s0, s1, "estimate_fallback_total")
	L["serve.shed"] = sumPrefix(s0, s1, "estimate_shed_total")
	L["wire.batches"] = delta(s0, s1, "wire_batches_total")
	L["wire.rows"] = delta(s0, s1, "wire_rows_total")
	L["wire.buffer_misses"] = delta(s0, s1, "wire_buffer_misses_total")

	cpu := (p1.cpu - p0.cpu).Seconds()
	L["process.cpu_s_total"] = cpu
	L["process.cpu_us_per_estimate"] = cpu * 1e6 / (reqs * float64(rows))
	L["process.alloc_bytes_per_request"] = float64(p1.allocB-p0.allocB) / reqs
	L["process.gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
	L["process.gc_pause_ms"] = float64(p1.gcPause-p0.gcPause) / 1e6
	L["process.peak_rss_mb"] = float64(p1.maxRSSKB) / 1024
	L["process.goroutines_end"] = float64(runtime.NumGoroutine())
}

// adaptLayers derives the adaptation layer metrics from the marks around
// every period the run played.
func adaptLayers(rep *report, drv *adaptDriver, from, to mark) {
	s0, s1, p0, p1 := from.s, to.s, from.p, to.p
	L := rep.Layers
	periods := math.Max(1, float64(len(drv.periodWall)))
	var stageSum float64
	for _, st := range stageNames {
		sec := delta(s0, s1, `warper_period_stage_seconds_sum{stage="`+st+`"}`)
		L["warper."+st+"_ms"] = sec * 1e3
		stageSum += sec
	}
	var wall time.Duration
	for _, w := range drv.periodWall {
		wall += w
	}
	L["warper.periods"] = delta(s0, s1, "warper_periods_total")
	L["warper.periods_updated"] = delta(s0, s1, "warper_model_updates_total")
	L["warper.generated"] = delta(s0, s1, "warper_generated_total")
	L["warper.annotated"] = delta(s0, s1, "warper_annotated_total")
	L["warper.early_stops"] = delta(s0, s1, "warper_early_stops_total")
	L["warper.train_samples"] = delta(s0, s1, "warper_train_samples_total")
	L["warper.pool_size_end"] = s1["warper_pool_size"]
	L["serve.period_overhead_ms"] = (wall.Seconds() - stageSum) * 1e3 / periods
	L["serve.swap_ms"] = delta(s0, s1, "warper_model_swap_seconds_sum") * 1e3 / periods
	L["serve.period_failures"] = delta(s0, s1, "warper_period_failures_total")
	fb := append([]time.Duration(nil), drv.feedbackLat...)
	sort.Slice(fb, func(i, j int) bool { return fb[i] < fb[j] })
	if len(fb) > 0 {
		L["serve.feedback_p50_us"] = float64(fb[len(fb)/2]) / 1e3
	}
	L["process.alloc_mb_per_period"] = float64(p1.allocB-p0.allocB) / periods / (1 << 20)
}

// layerProbes times the single-layer calls no serving request isolates:
// the annotator's scan, a model clone and a model update.
func layerProbes(fx *fixture, drv *adaptDriver, spans *spanLog, out map[string]float64) error {
	ctx := context.Background()
	preds := drv.heldout["w4"]
	t := time.Now()
	for _, p := range preds {
		if _, err := fx.truth.Count(ctx, p); err != nil {
			return err
		}
	}
	d := time.Since(t)
	spans.add("annotator.Count x"+fmt.Sprint(len(preds)), t, d, -1, probeLane)
	out["annotator.count_us_per_pred"] = float64(d) / 1e3 / float64(len(preds))
	out["annotator.rows_per_s"] = float64(len(preds)*fx.tbl.NumRows()) / d.Seconds()

	m := fx.srv.Estimator().Clone()
	var clones ladderTimes
	for i := 0; i < 51; i++ {
		t := time.Now()
		c := m.Clone()
		clones = append(clones, time.Since(t))
		spans.add("ce.Clone", t, clones[i], -1, probeLane)
		m = c
	}
	out["ce.clone_us"] = clones.quantileUs(0.5)

	examples := fx.train[:min(100, len(fx.train))]
	var updates ladderTimes
	for i := 0; i < 5; i++ {
		u := m.Clone()
		t := time.Now()
		if err := u.Update(examples); err != nil {
			return err
		}
		updates = append(updates, time.Since(t))
		spans.add("ce.Update x100", t, updates[i], -1, probeLane)
	}
	out["ce.update_ms_per_100"] = updates.quantileUs(0.5) / 1e3
	return nil
}

// checkInvariants turns what must hold on a workload into violations.
func checkInvariants(rep *report) {
	L := rep.Layers
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	if v := L["serve.fallback_answers"]; v != 0 {
		violate("serve.fallback_answers = %v, want 0", v)
	}
	if v := L["serve.shed"]; v != 0 {
		violate("serve.shed = %v, want 0", v)
	}
	if v := L["serve.period_failures"]; v != 0 {
		violate("serve.period_failures = %v, want 0", v)
	}
	hit := L["serve.cache_hit_ratio"]
	switch rep.Workload {
	case "json_scalar", "wire_unique":
		if hit > 0.01 {
			violate("serve.cache_hit_ratio = %.4f on a cache-bypassing workload, want <= 0.01", hit)
		}
	case "wire_zipf":
		if hit < 0.95 {
			violate("serve.cache_hit_ratio = %.4f on the cache-hit workload, want >= 0.95", hit)
		}
	}
	for name, v := range rep.EndToEnd {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			violate("%s = %v, want a positive finite value", name, v)
			rep.EndToEnd[name] = 0 // JSON has no spelling for NaN or Inf
		}
	}
	for name, v := range L {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			violate("%s = %v, want a finite value", name, v)
			L[name] = 0
		}
	}
	if v := L["bench.window_cv"]; v > 0.10 {
		rep.Flags = append(rep.Flags, fmt.Sprintf("bench.window_cv = %.3f > 0.10: a noisy host, read this run with care", v))
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
