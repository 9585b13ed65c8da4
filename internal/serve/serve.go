// Package serve exposes a Warper-adapted cardinality estimator over HTTP:
// a query optimizer (or anything else) asks for estimates, posts execution
// feedback, and triggers adaptation periods. This is the deployment shape
// §1 of the paper sketches — the CE model serves estimates continuously
// while Warper periodically repairs it against drifts.
//
// Concurrency model: estimates run on a pool of independent model replicas
// checked out via a lock-free free-list (see replicas.go), so concurrent
// /estimate requests never serialize on a mutex. A short serving lock (mu)
// guards only the feedback buffer and status counters; a separate period
// lock serializes adaptation. An adaptation period mutates the adapter's
// model while the pool keeps serving private clones of the previous
// generation; the repaired model is swapped in with one atomic generation
// bump at the end, and replicas re-clone lazily — so estimates stay
// servable (and fast) while a period is in flight, instead of queueing
// behind a multi-second model update. The measured replica-checkout wait is
// exported so the win stays visible. Every estimate, whatever its entry
// point, goes through the one pipeline in estimate.go.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"warper/internal/ce"
	"warper/internal/metrics"
	"warper/internal/obs"
	"warper/internal/query"
	"warper/internal/resilience"
	"warper/internal/warper"
	"warper/internal/wire"
)

// Options configures optional server features.
type Options struct {
	// Logger receives structured request logs (debug level) and every
	// lifecycle event the journal records; nil discards both.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU.
	EnablePprof bool
	// PeriodTimeout bounds one POST /period invocation: the adaptation
	// runs under a context with this deadline (layered on the request's
	// own context, which already dies when the client disconnects). On
	// expiry the period aborts and the pre-period model keeps serving.
	// 0 = no extra deadline.
	PeriodTimeout time.Duration
	// Replicas is the serving-pool size: how many independent model clones
	// can estimate concurrently. 0 or negative defaults to GOMAXPROCS.
	Replicas int
	// TraceSample enables request tracing: one estimate (and period) request
	// in every TraceSample is traced through the serving stages and retained
	// for /debug/traces. 0 disables tracing; the disabled hot path costs one
	// atomic load and allocates nothing.
	TraceSample int
	// TraceBuf is how many finished traces /debug/traces retains (default 64).
	TraceBuf int
	// DriftWindow is the rolling window of the q-error drift watch
	// (default 5m).
	DriftWindow time.Duration
	// DriftAlarmGMQ raises the drift alarm (journal event + warper_drift_alarm
	// gauge) when the windowed geometric mean q-error reaches this value.
	// 0 disables alarming; the windowed GMQ is still tracked for /statusz.
	DriftAlarmGMQ float64
	// EstimateTimeout is the default per-request deadline budget for
	// /estimate: how long a request may queue for a replica before the
	// server answers from the fallback ladder. Requests can override it with
	// the X-Warper-Deadline-Ms header.
	// 0 preserves the legacy contract: wait forever, no admission bound.
	EstimateTimeout time.Duration
	// ShedQueue bounds the admission queue of deadline-carrying estimates;
	// arrival ShedQueue+1 is shed immediately with 429 + Retry-After. 0
	// defaults to max(64, 16×Replicas).
	ShedQueue int
	// Health tunes the serving health state machine; zero fields default.
	Health HealthConfig
	// EstimateCache enables the generation-stamped predicate→cardinality
	// cache in front of the replica pool: repeated predicates are answered
	// byte-identically from memory until the next model swap (whose atomic
	// generation bump invalidates the whole cache). Degraded, shed and
	// deadline-missed answers are never cached.
	EstimateCache bool
	// CacheEntries bounds the estimate cache's total capacity across all
	// shards (0 = 4096, at most maxCacheEntries). Full probe groups evict
	// second-chance style.
	CacheEntries int
	// CacheFlushOnAlarm does nothing. Between two swaps a cached answer is
	// the model's own, bit for bit, so a flush on the drift alarm could
	// only turn hits into misses — and, degraded or shedding, misses into
	// fallback answers and 429s.
	//
	// Deprecated: a no-op, kept only because bench/ sets it by name.
	CacheFlushOnAlarm bool
	// BinaryProtocol mounts the columnar binary batch endpoint, POST
	// /estimate/batch (one frame per request). The wire format lives in
	// internal/wire; decoded predicates view the request bytes in place and
	// the steady path allocates nothing. Off by default.
	BinaryProtocol bool
}

// Server wires an Adapter behind an http.Handler. All handlers are safe for
// concurrent use.
type Server struct {
	// mu guards buffer, periods and status; it is held only for O(µs)
	// sections (a buffer append, a snapshot copy). Estimates never touch
	// it — they run on the replica pool.
	mu sync.Mutex
	// periodMu serializes adaptation; handlePeriod TryLocks it and answers
	// 409 when a period is already running.
	periodMu sync.Mutex

	adapter *warper.Adapter
	sch     *query.Schema
	// pool serves estimates from private model clones; handlePeriod swaps
	// a repaired model in with one atomic generation bump.
	pool *replicaPool
	// cache, when non-nil, answers repeated predicates without touching the
	// pool; entries are generation-stamped, so a model swap invalidates them
	// wholesale (Options.EstimateCache).
	cache   *estimateCache
	buffer  []warper.Arrival
	periods int
	// status caches the adapter-derived fields of GET /status so the
	// handler never touches adapter state a running period may be mutating.
	status statusSnapshot

	met *Metrics
	// rec is the drift flight recorder: request tracer, adaptation event
	// journal (mirrored to logger) and the rolling q-error drift watch.
	rec           *flightRecorder
	logger        *slog.Logger
	pprof         bool
	periodTimeout time.Duration

	// fb is the estimator fallback ladder: the tier estimates drop to when
	// the model cannot be reached in budget.
	fb *fallbackLadder
	// health is the serving health state machine; the estimate path reads
	// its state with one atomic load and, off the fast path, evaluates it
	// (see health.go for who else does).
	health *healthTracker
	// estimateTimeout is the default /estimate deadline budget (0 = none).
	estimateTimeout time.Duration

	// scratch is the free list of pooled request units every estimate entry
	// point draws from (see estimate.go).
	scratch chan *scratch
	// wireOn mounts the binary batch endpoints (see binary.go).
	wireOn bool
}

// statusSnapshot holds the /status fields refreshed under mu after every
// period.
type statusSnapshot struct {
	Model    string
	PoolSize int
	Labeled  int
	Pi       float64
	Gamma    int
	Costs    string
}

// New builds a Server around an adapter with default options.
func New(a *warper.Adapter, sch *query.Schema) *Server {
	return NewWithOptions(a, sch, Options{})
}

// NewWithOptions builds a Server with explicit options.
func NewWithOptions(a *warper.Adapter, sch *query.Schema, opts Options) *Server {
	s := &Server{
		adapter:       a,
		sch:           sch,
		met:           NewMetrics(),
		logger:        opts.Logger,
		pprof:         opts.EnablePprof,
		periodTimeout: opts.PeriodTimeout,
		scratch:       make(chan *scratch, scratchPoolSize),
		wireOn:        opts.BinaryProtocol,
	}
	if s.logger == nil {
		// Discard at a level above every call site rather than relying on
		// slog.DiscardHandler (Go 1.24+); go.mod targets 1.22.
		s.logger = slog.New(slog.NewTextHandler(io.Discard,
			&slog.HandlerOptions{Level: slog.Level(127)}))
	}
	s.rec = newFlightRecorder(s.met, s.logger, opts)
	n := opts.Replicas
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	// The pool source is a private snapshot, never the adapter's own M:
	// replica refreshes advance the source's RNG, and the adapter's seeded
	// state must stay traffic-independent.
	s.pool = newReplicaPool(a.ModelSnapshot(), n, s.met)
	if opts.ShedQueue > 0 {
		s.pool.maxQueue = int64(opts.ShedQueue)
	}
	s.estimateTimeout = opts.EstimateTimeout
	// Build the fallback histogram up front from the adapter's live table.
	s.fb = newFallbackLadder()
	s.fb.refresh(a.Table())
	s.health = newHealthTracker(opts.Health.withDefaults(s.pool.maxQueue), s.met, s.rec)
	s.met.onBreaker = func(st resilience.State) {
		// An open annotation breaker is a degraded-health signal: the
		// adapter cannot repair the model right now, so serving should stop
		// betting on a fresh one. Half-open probes count as open until they
		// succeed.
		s.health.breakerOpen.Store(st != resilience.Closed)
		s.rec.event(slog.LevelWarn, "breaker", 0, map[string]any{"state": st.String()})
	}
	if opts.EstimateCache {
		s.cache = newEstimateCache(sch.FeatureDim(), cacheShards, opts.CacheEntries, s.met)
	}
	s.refreshStatusLocked()
	return s
}

// Close is a no-op, kept so embedders that pair NewWithOptions with a
// deferred Close keep compiling: the server owns no goroutine and no
// resource the garbage collector does not.
func (s *Server) Close() {}

// Metrics exposes the server's metric set (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.met }

// refreshStatusLocked re-reads adapter state into the status cache. Callers
// must guarantee no period is concurrently mutating the adapter (holding
// periodMu, or during construction).
func (s *Server) refreshStatusLocked() {
	s.status = statusSnapshot{
		Model:    s.adapter.M.Name(),
		PoolSize: s.adapter.Pool.Len(),
		Labeled:  s.adapter.Pool.CountLabeled(),
		Pi:       s.adapter.Pi(),
		Gamma:    s.adapter.Gamma(),
		Costs:    s.adapter.Ledger.String(),
	}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", s.instrument("estimate", s.handleEstimate))
	if s.wireOn {
		mux.HandleFunc("POST /estimate/batch", s.instrument("estimate_batch", s.handleEstimateBatch))
	}
	mux.HandleFunc("POST /feedback", s.instrument("feedback", s.handleFeedback))
	mux.HandleFunc("POST /period", s.instrument("period", s.handlePeriod))
	mux.HandleFunc("GET /status", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = fmt.Fprintln(w, "ok") // health probes ignore the body anyway
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", s.met.Reg.VarsHandler())
	mux.HandleFunc("GET /debug/traces", s.instrument("traces", s.rec.handleTraces))
	mux.HandleFunc("GET /debug/events", s.instrument("events", s.rec.handleEvents))
	mux.HandleFunc("GET /statusz", s.instrument("statusz", s.handleStatusz))
	if s.pprof {
		obs.AttachPprof(mux)
	}
	return mux
}

// statusWriter captures the response code for request metrics and whether a
// response has started (the recover middleware can only substitute a 500
// before the first byte is written).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with panic recovery, request counting, latency
// recording and per-request debug logging.
//
// The recover layer is the last line of the panic-safety defense: the
// serving-path packages return errors instead of panicking (enforced by
// warperlint's panicfree rule), but a residual panic — say from a
// third-party model plugged in behind ce.Estimator — must cost one 500, not
// the whole warperd process. Panics are counted on serve_panics_total and
// logged with their stack.
func (s *Server) instrument(name string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Inc()
				s.logger.Error("handler panic",
					"handler", name, "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				sw.code = http.StatusInternalServerError
				if !sw.wrote {
					http.Error(sw.ResponseWriter, "internal error", http.StatusInternalServerError)
				}
			}
			d := time.Since(t0)
			s.met.requestDone(name, sw.code, d)
			s.logger.Debug("request",
				"handler", name, "code", sw.code, "dur_ms", float64(d.Microseconds())/1000)
		}()
		fn(sw, r)
	}
}

// predicateJSON is the wire form of a predicate.
type predicateJSON struct {
	Lows  []float64 `json:"lows"`
	Highs []float64 `json:"highs"`
}

func (s *Server) decodePredicate(pj predicateJSON) (query.Predicate, error) {
	d := s.sch.NumCols()
	if len(pj.Lows) != d || len(pj.Highs) != d {
		//lint:allow hotpathalloc malformed-request rejection; the error never forms on the steady path
		return query.Predicate{}, fmt.Errorf("predicate needs %d lows and highs, got %d/%d",
			d, len(pj.Lows), len(pj.Highs))
	}
	// Finiteness must be checked before Normalize: Normalize clamps ±Inf
	// into the schema's domain (masking it) and NaN survives its min/max
	// clamp — a NaN bound would become a cache key, flow into the feature
	// vector and produce garbage cardinalities silently. Shared check with
	// the binary decoder (wire.DecodeBatch). The normalized bounds are the
	// cache key as they stand.
	if wire.CheckFinite(pj.Lows) != nil || wire.CheckFinite(pj.Highs) != nil {
		return query.Predicate{}, wire.ErrNonFinite
	}
	p := query.Predicate{Lows: pj.Lows, Highs: pj.Highs}
	return p.Normalize(s.sch), nil
}

type estimateRequest struct {
	predicateJSON
}

type estimateResponse struct {
	Cardinality float64 `json:"cardinality"`
	// Degraded marks a fallback-ladder answer (with the reason it was
	// taken); omitted on full-model answers, so healthy responses are
	// byte-identical to the pre-admission-control wire format.
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// deadlineHeader lets one request override the server's default estimate
// budget, in integer milliseconds; maxDeadlineMs is the largest count that
// still fits a time.Duration.
const (
	deadlineHeader = "X-Warper-Deadline-Ms"
	maxDeadlineMs  = math.MaxInt64 / int64(time.Millisecond)
)

// estimateBudget resolves one request's deadline budget: the header
// override when present, else the -estimate-timeout default; zero means
// unbudgeted. A header that is not a positive integer millisecond count is
// an error the caller answers with 400 — silently ignoring a client typo
// would degrade that client to wait-forever semantics unnoticed, and so
// would a count past maxDeadlineMs: the conversion below would wrap it to a
// negative budget, which reads as "no deadline, exempt from the admission
// queue bound" (or to an arbitrary small positive one). Handlers
// call this before they read the body (a malformed header costs no upload)
// and turn the budget into a deadline only once the body is decoded.
func (s *Server) estimateBudget(r *http.Request) (time.Duration, error) {
	d := s.estimateTimeout
	if h := r.Header.Get(deadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 || ms > maxDeadlineMs {
			//lint:allow hotpathalloc malformed-request rejection; the error never forms on the steady path
			return 0, fmt.Errorf("%s: %q is not a positive integer millisecond count (at most %d)",
				deadlineHeader, h, maxDeadlineMs)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	return d, nil
}

// deadlineIn starts a budget's clock: the budget bounds the wait for a
// replica, so it starts when the request is decoded and ready to queue —
// never before the body is read, or a slow upload would spend it and the
// request would be answered from the ladder without waiting at all. A zero
// budget is no deadline.
func deadlineIn(budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// decodeJSONStrict decodes exactly one JSON value from body into v: a
// second Decode must report io.EOF, otherwise the body carried trailing
// bytes after its payload ({"lows":[…]}{"oops"}) and the request is
// rejected. The binary decoder enforces the same contract with its exact
// frame-length check; both report wire.ErrTrailingData.
//
//lint:allow hotpathalloc HTTP decode boundary; the zero-alloc envelope covers the estimate core, not the JSON codec
func decodeJSONStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return wire.ErrTrailingData
	}
	return nil
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	// Acquire costs one atomic load when tracing is off and returns nil;
	// every stage call below is a nil-receiver no-op then.
	tr := s.rec.tracer.Acquire("estimate")
	defer s.rec.tracer.Finish(tr)
	tr.EnterStage("decode")
	budget, err := s.estimateBudget(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxPeriodBody) //lint:allow hotpathalloc HTTP decode boundary; one body-cap wrapper per request, same codec layer as the decoder below
	var req estimateRequest
	if err := decodeJSONStrict(r.Body, &req); err != nil {
		httpError(w, decodeErrorCode(err), "decode: %v", err)
		return
	}
	p, err := s.decodePredicate(req.predicateJSON)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The estimate runs on a checked-out replica — no serving mutex anywhere
	// on this path. The health state decides the admission rule; the
	// deadline budgets the replica wait.
	card, out := s.estimateOne(p, s.health.current(), deadlineIn(budget), tr)
	if out.Shed {
		writeShed(w, out.Reason)
		return
	}
	tr.EnterStage("respond")
	s.writeJSON(w, estimateResponse{Cardinality: card, Degraded: out.Degraded, Reason: out.Reason}) //lint:allow hotpathalloc HTTP encode boundary; one response-struct box per request
	//lint:allow hotpathalloc sampled-trace epilogue: the string render and exemplar offer never run on untraced requests
	if tr != nil {
		// Offer the request as a slowest-exemplar candidate before the ring
		// recycles the trace. Sampled requests only — the string render
		// never happens on untraced requests.
		lat := time.Since(tr.Start)
		s.rec.exemplars.OfferSlow(obs.Exemplar{
			TraceID:   tr.ID,
			Time:      tr.Start,
			Latency:   lat.Seconds(),
			Predicate: p.WhereClause(s.sch),
		})
	}
}

type feedbackRequest struct {
	predicateJSON
	// Cardinality is the observed true cardinality; negative or missing
	// means the query ran without execution feedback.
	Cardinality *float64 `json:"cardinality"`
}

type feedbackResponse struct {
	Buffered int `json:"buffered"`
}

// maxFeedbackBuffer bounds the arrivals buffered between periods, so a
// client that posts feedback and never triggers /period cannot grow the heap
// without limit. A period consumes the whole buffer; the bound is far above
// what any period-driving client accumulates between two of them.
const maxFeedbackBuffer = 1 << 16

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	// Same body cap as /period and /estimate: feedback bodies beyond the cap
	// answer 413 instead of being decoded unboundedly.
	r.Body = http.MaxBytesReader(w, r.Body, maxPeriodBody)
	var req feedbackRequest
	if err := decodeJSONStrict(r.Body, &req); err != nil {
		httpError(w, decodeErrorCode(err), "decode: %v", err)
		return
	}
	p, err := s.decodePredicate(req.predicateJSON)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ar := warper.Arrival{Pred: p}
	if req.Cardinality != nil && *req.Cardinality >= 0 {
		ar.GT = *req.Cardinality
		ar.HasGT = true
	}
	if ar.HasGT {
		// Feedback carrying ground truth measures the served model's live
		// q-error — the continuous accuracy signal the paper only gets
		// offline. The estimate runs on the replica pool, outside mu.
		est := s.Estimate(p)
		q := metrics.QError(est, ar.GT)
		s.met.qerr.Observe(q)
		// Feed the rolling drift watch; an alarm transition lands in the
		// event journal and on the warper_drift_alarm gauge. The exemplar
		// set pins the worst offenders with their predicates for /statusz.
		now := time.Now()
		s.rec.feedback(q, obs.Exemplar{
			Time:      now,
			QError:    q,
			Estimate:  est,
			Truth:     ar.GT,
			Predicate: p.WhereClause(s.sch),
		}, now)
	}
	s.mu.Lock()
	full := len(s.buffer) >= maxFeedbackBuffer
	if !full {
		s.buffer = append(s.buffer, ar)
	}
	n := len(s.buffer)
	s.mu.Unlock()
	s.met.buffered.Set(float64(n))
	if full {
		// The q-error probe and the drift watch above have seen the
		// observation; only the next period's evidence is refused.
		writeShed(w, "feedback buffer full; POST /period to drain it")
		return
	}
	s.writeJSON(w, feedbackResponse{Buffered: n})
}

type periodResponse struct {
	Mode         string  `json:"mode"`
	Arrivals     int     `json:"arrivals"`
	Generated    int     `json:"generated"`
	Picked       int     `json:"picked"`
	Annotated    int     `json:"annotated"`
	Updated      bool    `json:"updated"`
	EarlyStopped bool    `json:"early_stopped"`
	DeltaM       float64 `json:"delta_m"`
	DeltaJS      float64 `json:"delta_js"`
	BusyMillis   float64 `json:"busy_ms"`
	// Degradation outcomes of the fault-tolerant annotation pipeline.
	Partial           bool `json:"partial,omitempty"`
	AnnotateFailed    int  `json:"annotate_failed,omitempty"`
	UsedFallback      bool `json:"used_fallback,omitempty"`
	TelemetryDegraded bool `json:"telemetry_degraded,omitempty"`
}

// maxPeriodBody caps a /period request body. Bodies beyond it are rejected
// outright rather than silently truncated.
const maxPeriodBody = 1 << 20

// validatePeriodBody enforces the /period request contract: an empty body,
// or a JSON object with a JSON content type, no larger than maxPeriodBody.
func validatePeriodBody(r *http.Request) (int, error) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			return http.StatusUnsupportedMediaType,
				fmt.Errorf("content-type %q, want application/json", ct)
		}
	}
	// Read one byte past the cap so an oversize body is detected instead of
	// validating (and accepting) a truncated prefix of it.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPeriodBody+1))
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("read body: %v", err)
	}
	if len(body) > maxPeriodBody {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds %d bytes", maxPeriodBody)
	}
	if len(bytes.TrimSpace(body)) > 0 && !json.Valid(body) {
		return http.StatusBadRequest, fmt.Errorf("body is not valid JSON")
	}
	return 0, nil
}

func (s *Server) handlePeriod(w http.ResponseWriter, r *http.Request) {
	if code, err := validatePeriodBody(r); err != nil {
		httpError(w, code, "%v", err)
		return
	}
	// One period at a time: answer 409 instead of silently queueing a
	// second multi-second adaptation behind the first.
	if !s.periodMu.TryLock() {
		s.met.conflicts.Inc()
		httpError(w, http.StatusConflict, "adaptation period already running")
		return
	}
	defer s.periodMu.Unlock()

	// Mark the swap in flight for the health machine: a period stuck past
	// Health.MaxSwapAge degrades the server instead of silently serving an
	// ever-staler generation. Health reconsiders at both edges: a period is
	// the one long event the estimate traffic cannot see end.
	start := time.Now()
	s.health.swapStart.Store(start.UnixNano())
	s.evalHealth(start)
	defer func() {
		s.health.swapStart.Store(0)
		s.evalHealth(time.Now())
	}()

	// Period requests ride the same sampler as estimates, so a journal
	// event can point at the trace that carried its period.
	tr := s.rec.tracer.Acquire("period")
	tr.EnterStage("period")
	defer s.rec.tracer.Finish(tr)
	var traceID uint64
	if tr != nil {
		traceID = tr.ID
	}

	// The replica pool serves private clones of the pre-period generation,
	// so the period below can mutate the adapter's model freely — estimates
	// never wait on it, and no serving-side clone is needed up front. The
	// pre-period clone here exists only for rollback on failure.
	pre := s.adapter.M.Clone()

	s.mu.Lock()
	arrivals := s.buffer
	s.buffer = nil
	s.mu.Unlock()
	nArrivals := len(arrivals)
	s.met.buffered.Set(0)
	s.rec.event(slog.LevelInfo, "period_start", traceID, map[string]any{"arrivals": nArrivals})

	// Propagate the request context so a disconnected client or the
	// configured period deadline aborts the adaptation instead of leaving
	// it running unobserved; the rollback below reinstates the clone.
	ctx := r.Context()
	if s.periodTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.periodTimeout)
		defer cancel()
	}
	rep, perr := s.adapter.PeriodCtx(ctx, arrivals)
	if perr != nil {
		// Failed repair (§6.4 robustness): discard the possibly
		// half-updated model and reinstate the pre-period clone — the pool
		// is still serving that generation, so /estimate never sees the
		// failure. The consumed arrivals are re-buffered ahead of any
		// feedback that arrived mid-period: a failed period must not cost
		// the next one its drift evidence. Past maxFeedbackBuffer it is the
		// mid-period tail that is trimmed.
		s.mu.Lock()
		s.adapter.M = pre
		s.buffer = append(arrivals, s.buffer[:min(len(s.buffer), maxFeedbackBuffer-len(arrivals))]...)
		nBuffered := len(s.buffer)
		s.refreshStatusLocked()
		s.mu.Unlock()
		s.met.buffered.Set(float64(nBuffered))
		s.met.failures.Inc()
		s.rec.event(slog.LevelError, "period_rollback", traceID, map[string]any{
			"error":           perr.Error(),
			"arrivals":        nArrivals,
			"rebuffered":      nBuffered,
			"mode":            rep.Detection.Mode.String(),
			"annotate_failed": rep.AnnotateFailed,
		})
		code := http.StatusInternalServerError
		if errors.Is(perr, context.DeadlineExceeded) || errors.Is(perr, context.Canceled) {
			code = http.StatusGatewayTimeout
		}
		httpError(w, code, "adaptation period failed: %v", perr)
		return
	}

	// Swap the repaired model in: one atomic generation bump. Replicas
	// re-clone from the new generation's private source lazily, at their
	// next checkout.
	s.pool.swap(s.adapter.M)
	if s.cache != nil {
		// The generation bump IS the cache invalidation: every entry is
		// stamped with the old generation and stops matching. Count it so
		// operators can tell wholesale invalidations from per-entry
		// evictions on /statusz.
		s.met.cacheInvalidations.Inc()
	}
	// Refresh the fallback histogram against the post-period world: it
	// re-reads the (possibly drifted) table. Under periodMu, so the table is
	// not mid-mutation.
	s.fb.refresh(s.adapter.Table())
	s.mu.Lock()
	s.periods++
	s.refreshStatusLocked()
	st := s.status
	s.mu.Unlock()
	s.writeJSON(w, s.stampPeriod(&rep, nArrivals, st, traceID))
}

// stampPeriod is the one place a completed period is recorded: from the
// adapter's Report — plus the pool and threshold state the status snapshot
// just re-read — it moves the counters, gauges and per-stage histograms,
// records (journal and log, one event each) period_end, the degradation
// steps and the swap, and builds the /period response. A failed period never
// gets here, so the period count, the stage histograms and the journal stay
// aligned.
func (s *Server) stampPeriod(rep *warper.Report, arrivals int, st statusSnapshot, traceID uint64) periodResponse {
	resp := periodResponse{
		Mode:         rep.Detection.Mode.String(),
		Arrivals:     arrivals,
		Generated:    rep.Generated,
		Picked:       rep.Picked,
		Annotated:    rep.Annotated,
		Updated:      rep.Updated,
		EarlyStopped: rep.EarlyStopped,
		DeltaM:       rep.Detection.DeltaM,
		DeltaJS:      rep.Detection.DeltaJS,
		BusyMillis:   float64(rep.Busy.Microseconds()) / 1000,

		Partial:           rep.Partial,
		AnnotateFailed:    rep.AnnotateFailed,
		UsedFallback:      rep.UsedFallback,
		TelemetryDegraded: rep.TelemetryDegraded,
	}

	m := s.met
	m.periods.Inc()
	m.generated.Add(int64(rep.Generated))
	m.annotated.Add(int64(rep.Annotated))
	m.trained.Add(int64(rep.TrainedSamples))
	m.annFailed.Add(int64(rep.AnnotateFailed))
	if rep.Updated {
		m.updates.Inc()
	}
	if rep.EarlyStopped {
		m.earlyStop.Inc()
	}
	if busy := rep.Busy.Seconds(); busy > 0 && rep.TrainedSamples > 0 {
		m.trainTput.Set(float64(rep.TrainedSamples) / busy)
	}
	m.poolSize.Set(float64(st.PoolSize))
	m.labeled.Set(float64(st.Labeled))
	m.pi.Set(st.Pi)
	m.gamma.Set(float64(st.Gamma))
	m.deltaM.Set(resp.DeltaM)
	m.deltaJS.Set(resp.DeltaJS)

	end := map[string]any{
		"mode":          resp.Mode,
		"arrivals":      arrivals,
		"generated":     rep.Generated,
		"picked":        rep.Picked,
		"annotated":     rep.Annotated,
		"updated":       rep.Updated,
		"early_stopped": rep.EarlyStopped,
		"delta_m":       resp.DeltaM,
		"delta_js":      resp.DeltaJS,
		"pi":            st.Pi,
		"gamma":         st.Gamma,
		"busy_ms":       resp.BusyMillis,
	}
	for i, stage := range warper.StageNames {
		secs := rep.Stages[i].Seconds()
		m.stages[i].Observe(secs)
		end["stage_"+stage+"_seconds"] = secs
	}
	s.rec.event(slog.LevelInfo, "period_end", 0, end)
	// One degrade_* event per degradation-ladder step the period took.
	if rep.Partial {
		m.periodPartial.Inc()
		s.rec.event(slog.LevelWarn, "degrade_partial", 0, map[string]any{"annotate_failed": rep.AnnotateFailed})
	}
	if rep.UsedFallback {
		m.annFallback.Inc()
		s.rec.event(slog.LevelWarn, "degrade_fallback", 0, nil)
	}
	if rep.TelemetryDegraded {
		m.telemetryDeg.Inc()
		s.rec.event(slog.LevelWarn, "degrade_telemetry", 0, nil)
	}
	s.rec.event(slog.LevelInfo, "model_swap", traceID, map[string]any{
		"generation": s.pool.generation(),
		"model":      st.Model,
		"updated":    rep.Updated,
	})
	return resp
}

type statusResponse struct {
	Model    string  `json:"model"`
	PoolSize int     `json:"pool_size"`
	Labeled  int     `json:"labeled"`
	Buffered int     `json:"buffered"`
	Periods  int     `json:"periods"`
	Pi       float64 `json:"pi"`
	Gamma    int     `json:"gamma"`
	Costs    string  `json:"costs"`
}

// statusNow assembles the GET /status payload, which /statusz heads its page
// with: the adapter state cached after the last period plus the live buffer
// length and period count.
func (s *Server) statusNow() statusResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return statusResponse{
		Model:    s.status.Model,
		PoolSize: s.status.PoolSize,
		Labeled:  s.status.Labeled,
		Buffered: len(s.buffer),
		Periods:  s.periods,
		Pi:       s.status.Pi,
		Gamma:    s.status.Gamma,
		Costs:    s.status.Costs,
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.statusNow())
}

// writeJSON encodes v as the response body. By the time Encode can fail the
// 200 header (and possibly part of the body) is already on the wire, so a
// failure is logged rather than answered — writing a second status header
// into a half-sent body would corrupt the response, not repair it.
//
//lint:allow hotpathalloc HTTP encode boundary; the JSON encoder is the response codec, not the estimate core
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logger.Error("response encode failed", "err", err)
	}
}

//lint:allow hotpathalloc error responses are off the steady-state path; formatting one may allocate
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// writeShed answers a shed estimate, scalar or batch: 429 with the reason.
// A shed is a promise the server will recover if clients back off;
// Retry-After makes the back-off explicit.
//
//lint:allow hotpathalloc shed responses are off the steady path by definition; the reason string boxes once per 429
func writeShed(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, "overloaded: %s", reason)
}

// decodeErrorCode maps a body-decode failure to its status: 413 when the
// MaxBytesReader cap tripped, 400 otherwise.
//
//lint:allow hotpathalloc malformed-request rejection; errors.As only runs once a request has already failed
func decodeErrorCode(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Estimator returns the serving generation's source model, for tests.
// Treat it as read-only: it backs every future replica refresh.
func (s *Server) Estimator() ce.Estimator {
	return s.pool.current()
}

// HealthState returns the current serving health state.
func (s *Server) HealthState() HealthState { return s.health.current() }

// QueueDepth returns how many estimates currently sit in the bounded
// admission queue, for overload benchmarks and soak tests asserting the
// queue stays bounded.
func (s *Server) QueueDepth() int64 { return s.pool.queueDepth() }
