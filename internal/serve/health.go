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
// pointed the other way — it budgets *serving* so overload degrades answers
// instead of collapsing the process. It reads serving load only — the
// windowed replica-checkout-wait p99 and the admission-queue depth — because
// only overload keeps the model from answering: an annotation fault or a
// long adaptation period leaves the served model unchanged and reachable.
//
// The machine is deliberately cheap to read and deliberately slow to move:
// the estimate hot path pays one atomic load to learn the state, and the
// state is re-evaluated — at most once per evalInterval, with hysteresis, so
// a single bad sample cannot flap the server between modes — by the traffic
// it governs: every estimate that leaves the checkout fast path or runs while
// the state is not Healthy offers an evaluation (admit, or estimateGroup for
// a group that hit on every row), as do the two handlers that render
// health (/metrics, /status). The server owns no goroutine, so an
// idle one holds its last state until the next request or scrape; a free
// replica is used in every state, so those first requests are still answered
// by the model.

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

// String names the state for journals and /status.
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

// The machine's fixed thresholds.
const (
	// degradeWaitP99 is the windowed replica-checkout-wait p99 above which
	// an evaluation counts as degraded.
	degradeWaitP99 = 25 * time.Millisecond
	// shedWaitP99 is the checkout-wait p99 above which an evaluation counts
	// as shedding.
	shedWaitP99 = 250 * time.Millisecond
	// evalInterval throttles evaluations: requests offer them far more often
	// than the machine needs to think.
	evalInterval = 250 * time.Millisecond
	// escalateAfter is how many consecutive worse-than-current evaluations
	// move the state one step up the ladder.
	escalateAfter = 2
	// recoverAfter is how many consecutive better-than-current evaluations
	// move it one step down. Recovery is slower than escalation so a brief
	// lull under sustained overload does not bounce the server straight
	// back into the queue it just shed.
	recoverAfter = 3
)

// queueHighFor derives the admission-queue depth above which an evaluation
// counts as shedding: half the pool's shed-queue bound, at least 1.
func queueHighFor(queueBound int64) int64 { return max(queueBound/2, 1) }

// healthSignals is one evaluation's input: the windowed checkout-wait p99
// and the live admission-queue depth.
type healthSignals struct {
	waitP99    float64 // seconds
	queueDepth int64
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
// mutex, at most one per evalEvery.
type healthTracker struct {
	// degradeWait, shedWait and evalEvery start at degradeWaitP99,
	// shedWaitP99 and evalInterval; queueHigh is queueHighFor of the pool's
	// admission-queue bound. Tests that drive the machine step by step or
	// in milliseconds set them before any traffic.
	degradeWait, shedWait, evalEvery time.Duration
	queueHigh                        int64

	state atomic.Int32
	// lastEval throttles evaluations to evalEvery (UnixNano, CAS-guarded
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

// newHealthTracker builds a tracker for a pool whose admission queue holds
// queueBound estimates, publishing transitions on met's serve_health_state
// gauge and as health events on rec.
func newHealthTracker(queueBound int64, met *Metrics, rec *flightRecorder) *healthTracker {
	h := &healthTracker{degradeWait: degradeWaitP99, shedWait: shedWaitP99, evalEvery: evalInterval,
		queueHigh: queueHighFor(queueBound), wait: newWaitWindow(met.checkoutWait), met: met, rec: rec}
	met.healthState.Set(float64(Healthy))
	return h
}

// current returns the state with one atomic load.
func (h *healthTracker) current() HealthState { return HealthState(h.state.Load()) }

// due reports whether enough time passed since the last evaluation, electing
// exactly one caller per interval. At evalEvery 0 every caller that wins the
// CAS is due.
func (h *healthTracker) due(now time.Time) bool {
	last := h.lastEval.Load()
	if now.UnixNano()-last < int64(h.evalEvery) {
		return false
	}
	return h.lastEval.CompareAndSwap(last, now.UnixNano())
}

// classify maps one signal reading onto the ladder, worst condition wins.
func (h *healthTracker) classify(sig healthSignals) HealthState {
	if sig.waitP99 >= h.shedWait.Seconds() || sig.queueDepth >= h.queueHigh {
		return Shedding
	}
	if sig.waitP99 >= h.degradeWait.Seconds() {
		return Degraded
	}
	return Healthy
}

// eval completes one signal reading with the windowed checkout-wait p99 as of
// now, folds it into the hysteresis streaks and applies at most a single-step
// transition. Transitions are journaled and logged with the signals that
// caused them, so an operator can replay *why* the server left healthy. The
// journal entry is written under the lock and before the new state is
// published: whoever reads a state finds its transition in the journal, and
// transitions reach the journal in the order they happened. The log line,
// which does I/O, is written after the lock is released, so two transitions
// racing each other may reach the log in the other order.
func (h *healthTracker) eval(now time.Time, sig healthSignals) {
	if level, fields := h.transition(now, sig); fields != nil {
		h.rec.log(level, "health", 0, fields)
	}
}

// transition is eval's locked half: it classifies sig and, on a state
// change, journals the transition and publishes the new state. It returns
// the transition's log level and fields, and nil fields when the state
// holds.
func (h *healthTracker) transition(now time.Time, sig healthSignals) (slog.Level, map[string]any) {
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
		if h.badStreak >= escalateAfter {
			next = cur + 1 // single step, even when target is two above
			h.badStreak = 0
		}
	case target < cur:
		h.goodStreak++
		h.badStreak = 0
		if h.goodStreak >= recoverAfter {
			next = cur - 1
			h.goodStreak = 0
		}
	default:
		h.badStreak, h.goodStreak = 0, 0
	}
	if next == cur {
		return 0, nil
	}
	h.met.healthState.Set(float64(next))
	level := slog.LevelInfo
	if next > cur {
		level = slog.LevelWarn
	}
	fields := map[string]any{
		"from":        cur.String(),
		"to":          next.String(),
		"wait_p99_ms": sig.waitP99 * 1000,
		"queue_depth": sig.queueDepth,
	}
	//lint:allow lockorder the transition is journaled before it is published; Journal.Append takes no other lock
	h.rec.journal.Append("health", 0, fields)
	h.state.Store(int32(next))
	return level, fields
}

// evalHealth runs one (throttled) health evaluation: gather the signals —
// windowed checkout-wait p99 and live admission-queue depth — and let the
// tracker classify them with hysteresis. An evaluation that does not change
// the state allocates nothing.
func (s *Server) evalHealth(now time.Time) {
	if !s.health.due(now) {
		return
	}
	s.health.eval(now, healthSignals{queueDepth: s.pool.queueDepth()})
}
