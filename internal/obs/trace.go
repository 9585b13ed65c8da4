package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the request-tracing half of the flight recorder: a
// sampled, allocation-bounded per-request trace through the serving stages
// (handler → cache probe → replica checkout → batched inference), retained in
// a fixed ring and exportable as Chrome trace-event JSON, plus top-K
// exemplar capture for the worst and slowest requests.
//
// The binding constraint is the estimate hot path: with sampling off, the
// only cost a request pays is one atomic load in Tracer.Acquire. Trace
// structs are pre-allocated and recycled through a free list, so tracing a
// request never allocates either — the ring and the free list together own
// every Trace that will ever exist.

// maxTraceStages bounds the per-trace stage array. The serving path has
// five stages today; the headroom absorbs future splits without a realloc.
const maxTraceStages = 8

// TraceStage is one timed stage inside a trace, as an offset from the
// trace start.
type TraceStage struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start"`
	Dur   time.Duration `json:"dur"`
}

// Trace records one sampled request. Exactly one goroutine owns a trace
// between Acquire and Finish, so stage recording needs no synchronization.
type Trace struct {
	ID      uint64
	Handler string
	Start   time.Time
	// BatchSize and Generation capture which serving configuration answered:
	// how many cache-missing rows shared the forward pass and which model
	// generation's replica ran it.
	BatchSize  int
	Generation uint64

	stages [maxTraceStages]TraceStage
	n      int
	cur    string // open stage name, "" when none
	curAt  time.Time
	total  time.Duration // set by Finish
}

// reset prepares a recycled trace for a new request.
func (t *Trace) reset(id uint64, handler string, now time.Time) {
	t.ID = id
	t.Handler = handler
	t.Start = now
	t.BatchSize = 0
	t.Generation = 0
	t.n = 0
	t.cur = ""
	t.total = 0
}

// EnterStage closes the open stage (if any) and opens the named one. Safe
// to call on a nil trace, so call sites need no guards.
func (t *Trace) EnterStage(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.closeStage(now)
	t.cur = name
	t.curAt = now
}

// closeStage ends the open stage at now.
func (t *Trace) closeStage(now time.Time) {
	if t.cur == "" {
		return
	}
	if t.n < len(t.stages) {
		t.stages[t.n] = TraceStage{Name: t.cur, Start: t.curAt.Sub(t.Start), Dur: now.Sub(t.curAt)}
		t.n++
	}
	t.cur = ""
}

// Stages returns the recorded stages. Valid only after Finish, or while the
// owning goroutine still holds the trace.
func (t *Trace) Stages() []TraceStage { return t.stages[:t.n] }

// Total returns the request's wall-clock duration (set by Finish).
func (t *Trace) Total() time.Duration { return t.total }

// Tracer samples requests and retains the last `buf` finished traces in a
// ring. All Trace structs are pre-allocated: `buf` live in the ring plus
// `buf` circulating through the free list, so concurrent sampled requests
// beyond the free list's depth simply go untraced rather than allocating.
type Tracer struct {
	// every is the sampling interval: trace one request in every `every`.
	// 0 disables tracing; the Acquire fast path is a single atomic load.
	every atomic.Int64
	seq   atomic.Uint64 // request counter driving the deterministic sampler
	ids   atomic.Uint64 // trace ID allocator

	free chan *Trace

	mu    sync.Mutex
	ring  []*Trace // finished traces, oldest overwritten
	n     int
	next  int
	total uint64 // finished traces ever

	// Sampled and Dropped count sampling decisions and free-list starvation;
	// the serving metrics export them.
	Sampled atomic.Int64
	Dropped atomic.Int64
}

// NewTracer builds a tracer retaining buf finished traces (minimum 8),
// sampling one request in every `every` (0 = off).
func NewTracer(every, buf int) *Tracer {
	if buf < 8 {
		buf = 8
	}
	t := &Tracer{
		free: make(chan *Trace, 2*buf),
		ring: make([]*Trace, buf),
	}
	// 2*buf total: once the ring fills with buf finished traces, every
	// Finish recycles its eviction back here, leaving buf circulating
	// through the free list indefinitely.
	for i := 0; i < 2*buf; i++ {
		t.free <- &Trace{}
	}
	t.SetSample(every)
	return t
}

// SetSample changes the sampling interval: trace one request in every n
// (0 or negative disables).
func (t *Tracer) SetSample(n int) {
	if n < 0 {
		n = 0
	}
	t.every.Store(int64(n))
}

// Sampling reports whether the tracer is currently sampling at all.
func (t *Tracer) Sampling() bool { return t.every.Load() > 0 }

// Acquire returns a trace for this request, or nil when tracing is off,
// the request is not sampled, or every pre-allocated trace is in flight.
// The disabled path is one atomic load.
func (t *Tracer) Acquire(handler string) *Trace {
	every := t.every.Load()
	if every == 0 {
		return nil
	}
	if t.seq.Add(1)%uint64(every) != 0 {
		return nil
	}
	t.Sampled.Add(1)
	select {
	case tr := <-t.free:
		tr.reset(t.ids.Add(1), handler, time.Now())
		return tr
	default:
		t.Dropped.Add(1)
		return nil
	}
}

// Finish closes the trace's open stage and publishes it into the ring,
// evicting the oldest finished trace back onto the free list. Safe on nil.
func (t *Tracer) Finish(tr *Trace) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.closeStage(now)
	tr.total = now.Sub(tr.Start)
	t.mu.Lock()
	evicted := t.ring[t.next]
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.total++
	t.mu.Unlock()
	if evicted != nil {
		// The channel send is the happens-before edge between this ring slot
		// read and the next owner's reset.
		t.free <- evicted
	}
}

// Snapshot copies the finished traces, oldest-first. The copies are
// detached values: the ring entries they came from may be recycled
// immediately after.
func (t *Tracer) Snapshot() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, *t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Total returns how many traces ever finished.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events), loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the JSON-object flavor of the format.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders traces as Chrome trace-event JSON: one complete
// event per trace spanning the whole request, one per recorded stage,
// timestamped relative to the earliest trace start. Each trace gets its ID
// as the tid, so concurrent requests stack as separate tracks.
func WriteChromeTrace(w io.Writer, traces []Trace) error {
	var epoch time.Time
	for i := range traces {
		if epoch.IsZero() || traces[i].Start.Before(epoch) {
			epoch = traces[i].Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	file := chromeTraceFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for i := range traces {
		tr := &traces[i]
		base := tr.Start.Sub(epoch)
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: tr.Handler, Ph: "X", Ts: us(base), Dur: us(tr.total), Pid: 1, Tid: tr.ID,
			Args: map[string]any{
				"trace_id":   tr.ID,
				"batch_size": tr.BatchSize,
				"generation": tr.Generation,
			},
		})
		for _, st := range tr.Stages() {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: st.Name, Ph: "X", Ts: us(base + st.Start), Dur: us(st.Dur), Pid: 1, Tid: tr.ID,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// Exemplar pins one noteworthy request — a worst-q-error or slowest
// outlier — with enough context to reproduce it: the predicate, the
// estimate vs. the truth, and the trace that carried it.
type Exemplar struct {
	TraceID   uint64    `json:"trace_id,omitempty"`
	Time      time.Time `json:"time"`
	QError    float64   `json:"q_error,omitempty"`
	Latency   float64   `json:"latency_seconds,omitempty"`
	Predicate string    `json:"predicate,omitempty"`
	Estimate  float64   `json:"estimate,omitempty"`
	Truth     float64   `json:"truth,omitempty"`
}

// Exemplars keeps two bounded top-K sets: the worst q-error requests seen
// through feedback and the slowest sampled requests. A cheap atomic
// threshold check keeps non-outliers from ever touching the mutex.
type Exemplars struct {
	k int

	qFloor atomic.Uint64 // float64 bits of the smallest retained q-error
	sFloor atomic.Uint64 // float64 bits of the smallest retained latency

	mu      sync.Mutex
	worstQ  []Exemplar // sorted descending by QError
	slowest []Exemplar // sorted descending by Latency
}

// NewExemplars retains the top k (minimum 1) of each kind.
func NewExemplars(k int) *Exemplars {
	if k < 1 {
		k = 1
	}
	return &Exemplars{k: k}
}

// OfferQError offers a feedback-time q-error outlier.
func (e *Exemplars) OfferQError(x Exemplar) {
	if f := e.qFloor.Load(); f != 0 && x.QError <= math.Float64frombits(f) {
		return
	}
	e.mu.Lock()
	e.worstQ = insertTopK(e.worstQ, x, e.k, func(a, b Exemplar) bool { return a.QError > b.QError })
	if len(e.worstQ) == e.k {
		e.qFloor.Store(math.Float64bits(e.worstQ[len(e.worstQ)-1].QError))
	}
	e.mu.Unlock()
}

// OfferSlow offers a sampled slow request.
func (e *Exemplars) OfferSlow(x Exemplar) {
	if f := e.sFloor.Load(); f != 0 && x.Latency <= math.Float64frombits(f) {
		return
	}
	e.mu.Lock()
	e.slowest = insertTopK(e.slowest, x, e.k, func(a, b Exemplar) bool { return a.Latency > b.Latency })
	if len(e.slowest) == e.k {
		e.sFloor.Store(math.Float64bits(e.slowest[len(e.slowest)-1].Latency))
	}
	e.mu.Unlock()
}

// WorstQ returns the worst-q-error exemplars, worst first.
func (e *Exemplars) WorstQ() []Exemplar {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Exemplar(nil), e.worstQ...)
}

// Slowest returns the slowest-request exemplars, slowest first.
func (e *Exemplars) Slowest() []Exemplar {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Exemplar(nil), e.slowest...)
}

// insertTopK inserts x into the descending-sorted set, keeping at most k.
func insertTopK(set []Exemplar, x Exemplar, k int, more func(a, b Exemplar) bool) []Exemplar {
	i := len(set)
	for i > 0 && more(x, set[i-1]) {
		i--
	}
	if i >= k {
		return set
	}
	set = append(set, Exemplar{})
	copy(set[i+1:], set[i:])
	set[i] = x
	if len(set) > k {
		set = set[:k]
	}
	return set
}
