package serve

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"warper/internal/obs"
)

// This file implements the serving health state machine: a three-state
// ladder (healthy → degraded → shedding) that decides, per estimate, whether
// the request may queue for a replica, must settle for the fallback
// estimator, or should be shed outright. The paper budgets adaptation so
// serving is never starved (§4.3); the health machine is the same idea
// pointed the other way — it budgets *serving* so overload or a stuck swap
// degrades answers instead of collapsing the process.
//
// The machine is deliberately cheap to read and deliberately slow to move:
// the estimate hot path pays one atomic load to learn the state, and the
// state is re-evaluated — at most once per EvalInterval, with hysteresis, so
// a single bad sample cannot flap the server between modes — by the traffic
// it governs: every estimate that leaves the checkout fast path or runs while
// the state is not Healthy offers an evaluation (admit), as do the /period
// edges and the two handlers that render health (/metrics, /statusz). The
// server owns no goroutine, so an idle one holds its last state until the
// next request or scrape; a free replica is used in every state, so those
// first requests are still answered by the model.

// HealthState is the serving health ladder. The numeric values are exported
// on the serve_health_state gauge, so they are part of the metric contract.
type HealthState int32

const (
	// Healthy serves every estimate from the model, queueing (within the
	// deadline budget) when replicas are busy.
	Healthy HealthState = 0
	// Degraded answers from a replica when one is free immediately and from
	// the fallback ladder otherwise; responses carry "degraded": true.
	Degraded HealthState = 1
	// Shedding admits an estimate only when a replica is free immediately
	// and answers 429 + Retry-After otherwise.
	Shedding HealthState = 2
)

// String names the state for journals and /statusz.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Shedding:
		return "shedding"
	}
	return "unknown"
}

// HealthConfig tunes the health state machine. The zero value means
// "defaults", resolved by withDefaults at server construction.
type HealthConfig struct {
	// DegradeWaitP99 is the windowed replica-checkout-wait p99 above which
	// the server counts an evaluation as degraded. Default 25ms.
	DegradeWaitP99 time.Duration
	// ShedWaitP99 is the checkout-wait p99 above which an evaluation counts
	// as shedding. Default 250ms.
	ShedWaitP99 time.Duration
	// QueueHigh is the admission-queue depth above which an evaluation
	// counts as shedding. Default: half the pool's shed-queue bound.
	QueueHigh int64
	// MaxSwapAge marks the server degraded while an adaptation period (and
	// its eventual model swap) has been in flight longer than this. Default
	// 30s.
	MaxSwapAge time.Duration
	// EscalateAfter is how many consecutive worse-than-current evaluations
	// move the state one step up the ladder. Default 2.
	EscalateAfter int
	// RecoverAfter is how many consecutive better-than-current evaluations
	// move it one step down. Recovery is slower than escalation by default
	// (3) so a brief lull under sustained overload does not bounce the
	// server straight back into the queue it just shed.
	RecoverAfter int
	// EvalInterval throttles evaluations: requests offer them far more often
	// than the machine needs to think. Default 250ms; negative disables the
	// throttle (used by tests driving the machine step by step).
	EvalInterval time.Duration
}

// withDefaults resolves zero fields. queueBound is the pool's admission
// queue cap, used to derive QueueHigh.
func (c HealthConfig) withDefaults(queueBound int64) HealthConfig {
	if c.DegradeWaitP99 <= 0 {
		c.DegradeWaitP99 = 25 * time.Millisecond
	}
	if c.ShedWaitP99 <= 0 {
		c.ShedWaitP99 = 250 * time.Millisecond
	}
	if c.QueueHigh <= 0 {
		c.QueueHigh = queueBound / 2
		if c.QueueHigh < 1 {
			c.QueueHigh = 1
		}
	}
	if c.MaxSwapAge <= 0 {
		c.MaxSwapAge = 30 * time.Second
	}
	if c.EscalateAfter <= 0 {
		c.EscalateAfter = 2
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 3
	}
	if c.EvalInterval == 0 {
		c.EvalInterval = 250 * time.Millisecond
	}
	return c
}

// healthSignals is one evaluation's input: the windowed checkout-wait p99,
// the live admission-queue depth, the annotation breaker state, and how long
// the in-flight adaptation period (if any) has been running.
type healthSignals struct {
	waitP99     float64 // seconds
	queueDepth  int64
	breakerOpen bool
	swapAge     time.Duration
}

// healthWindowSlots × healthWindowSlot is the span of the checkout-wait
// window: twelve five-second slots, so the windowed p99 looks 55–60 s back.
const (
	healthWindowSlots = 12
	healthWindowSlot  = 5 * time.Second
)

// waitWindow is the recent-window view of the one histogram the health
// machine reads. A log-bucket histogram is a vector of counters, so the
// window is "live bucket counts minus the oldest retained snapshot of
// them": a fixed ring of count slices, advanced by the evaluations that read
// it and allocation-free after construction. The recording path is untouched.
type waitWindow struct {
	hist  *obs.Histogram
	slots [healthWindowSlots][]int64 // cumulative counts, oldest overwritten
	n     int                        // filled slots
	next  int                        // ring write index
	last  time.Time                  // time of the newest snapshot
	live  []int64                    // scratch: the current reading, then its delta
}

func newWaitWindow(hist *obs.Histogram) *waitWindow {
	w := &waitWindow{hist: hist, live: hist.Counts(nil)}
	for i := range w.slots {
		w.slots[i] = make([]int64, len(w.live))
	}
	return w
}

// p99 snapshots the histogram when a slot has passed since the last
// snapshot, then reads the p99 of what was observed since the oldest one. The
// first reading of a fresh window is therefore empty (0), never the lifetime.
func (w *waitWindow) p99(now time.Time) float64 {
	w.live = w.hist.Counts(w.live)
	if w.n == 0 || now.Sub(w.last) >= healthWindowSlot {
		copy(w.slots[w.next], w.live)
		w.next = (w.next + 1) % healthWindowSlots
		w.n = min(w.n+1, healthWindowSlots)
		w.last = now
	}
	base := w.slots[(w.next-w.n+healthWindowSlots)%healthWindowSlots]
	for i, b := range base {
		w.live[i] = max(w.live[i]-b, 0) // buckets are read one by one; clamp a racing snapshot
	}
	return w.hist.QuantileOfCounts(w.live, 0.99)
}

// healthTracker runs the state machine. State reads are one atomic load
// (the estimate hot path's only contact with it); evaluations run under a
// mutex, at most one per EvalInterval.
type healthTracker struct {
	cfg HealthConfig

	state atomic.Int32
	// breakerOpen mirrors the annotation circuit breaker, written by the
	// resilience Events callback and read by evaluations and by the
	// degraded-path reason split.
	breakerOpen atomic.Bool
	// swapStart is the UnixNano start of the in-flight adaptation period
	// (0 when none): a period stuck past MaxSwapAge degrades the server.
	swapStart atomic.Int64
	// lastEval throttles evaluations to EvalInterval (UnixNano, CAS-guarded
	// so concurrent requests elect one evaluator).
	lastEval atomic.Int64

	// mu guards the wait window and the hysteresis streaks; held only inside
	// eval.
	mu         sync.Mutex
	wait       *waitWindow
	badStreak  int
	goodStreak int

	met *Metrics
	rec *flightRecorder
}

// newHealthTracker builds a tracker publishing transitions on met's
// serve_health_state gauge and as health events on rec.
func newHealthTracker(cfg HealthConfig, met *Metrics, rec *flightRecorder) *healthTracker {
	h := &healthTracker{cfg: cfg, wait: newWaitWindow(met.checkoutWait), met: met, rec: rec}
	met.healthState.Set(float64(Healthy))
	return h
}

// current returns the state with one atomic load.
func (h *healthTracker) current() HealthState { return HealthState(h.state.Load()) }

// due reports whether enough time passed since the last evaluation, electing
// exactly one caller per interval.
func (h *healthTracker) due(now time.Time) bool {
	if h.cfg.EvalInterval < 0 {
		return true
	}
	last := h.lastEval.Load()
	if now.UnixNano()-last < int64(h.cfg.EvalInterval) {
		return false
	}
	return h.lastEval.CompareAndSwap(last, now.UnixNano())
}

// classify maps one signal reading onto the ladder, worst condition wins.
func (h *healthTracker) classify(sig healthSignals) HealthState {
	if sig.waitP99 >= h.cfg.ShedWaitP99.Seconds() || sig.queueDepth >= h.cfg.QueueHigh {
		return Shedding
	}
	if sig.breakerOpen || sig.waitP99 >= h.cfg.DegradeWaitP99.Seconds() ||
		(sig.swapAge > 0 && sig.swapAge >= h.cfg.MaxSwapAge) {
		return Degraded
	}
	return Healthy
}

// eval completes one signal reading with the windowed checkout-wait p99 as of
// now, folds it into the hysteresis streaks and applies at most a single-step
// transition. Transitions are journaled and logged with the signals that
// caused them, so an operator can replay *why* the server left healthy. The
// event is written under the lock and before the new state is published:
// whoever reads a state finds its transition in the journal, and
// transitions reach the journal in the order they happened.
func (h *healthTracker) eval(now time.Time, sig healthSignals) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sig.waitP99 = h.wait.p99(now)
	target := h.classify(sig)
	cur := h.current()
	next := cur
	switch {
	case target > cur:
		h.badStreak++
		h.goodStreak = 0
		if h.badStreak >= h.cfg.EscalateAfter {
			next = cur + 1 // single step, even when target is two above
			h.badStreak = 0
		}
	case target < cur:
		h.goodStreak++
		h.badStreak = 0
		if h.goodStreak >= h.cfg.RecoverAfter {
			next = cur - 1
			h.goodStreak = 0
		}
	default:
		h.badStreak, h.goodStreak = 0, 0
	}
	if next == cur {
		return
	}
	h.met.healthState.Set(float64(next))
	level := slog.LevelInfo
	if next > cur {
		level = slog.LevelWarn
	}
	h.rec.event(level, "health", 0, map[string]any{
		"from":         cur.String(),
		"to":           next.String(),
		"wait_p99_ms":  sig.waitP99 * 1000,
		"queue_depth":  sig.queueDepth,
		"breaker_open": sig.breakerOpen,
		"swap_age_ms":  float64(sig.swapAge.Microseconds()) / 1000,
	})
	h.state.Store(int32(next))
}

// evalHealth runs one (throttled) health evaluation: gather the signals —
// windowed checkout-wait p99, live admission-queue depth, breaker state,
// in-flight swap age — and let the tracker classify them with hysteresis.
// An evaluation that does not change the state allocates nothing.
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
	s.health.eval(now, sig)
}
