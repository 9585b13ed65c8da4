package serve

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"warper/internal/obs"
)

// testTracker builds a tracker with the eval throttle disabled so tests can
// drive the machine one evaluation at a time.
func testTracker(cfg HealthConfig) (*healthTracker, *obs.Journal) {
	met := NewMetrics()
	rec := newFlightRecorder(met, slog.New(slog.NewTextHandler(io.Discard, nil)), Options{})
	return newHealthTracker(cfg.withDefaults(64), met, rec), rec.journal
}

func TestHealthClassify(t *testing.T) {
	h, _ := testTracker(HealthConfig{EvalInterval: -1})
	cases := []struct {
		name string
		sig  healthSignals
		want HealthState
	}{
		{"idle", healthSignals{}, Healthy},
		{"small wait", healthSignals{waitP99: 0.001}, Healthy},
		{"degrade wait", healthSignals{waitP99: 0.025}, Degraded},
		{"shed wait", healthSignals{waitP99: 0.250}, Shedding},
		{"breaker open", healthSignals{breakerOpen: true}, Degraded},
		{"queue high", healthSignals{queueDepth: 32}, Shedding},
		{"queue below high", healthSignals{queueDepth: 31}, Healthy},
		{"young swap", healthSignals{swapAge: time.Second}, Healthy},
		{"stuck swap", healthSignals{swapAge: time.Minute}, Degraded},
		{"worst wins", healthSignals{breakerOpen: true, queueDepth: 32}, Shedding},
	}
	for _, c := range cases {
		if got := h.classify(c.sig); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestHealthHysteresis pins the transition discipline: EscalateAfter
// consecutive bad evaluations move one step up, RecoverAfter good ones move
// one step down, and a mixed sample resets both streaks.
func TestHealthHysteresis(t *testing.T) {
	h, j := testTracker(HealthConfig{EvalInterval: -1})
	bad := healthSignals{queueDepth: 64} // classifies as shedding
	good := healthSignals{}
	now := time.Now()

	// One bad evaluation must not move the state (EscalateAfter = 2).
	h.eval(now, bad)
	if got := h.current(); got != Healthy {
		t.Fatalf("after 1 bad eval: %v, want healthy", got)
	}
	// The second does — but only a single step, even though the target is
	// shedding, two above.
	h.eval(now, bad)
	if got := h.current(); got != Degraded {
		t.Fatalf("after 2 bad evals: %v, want degraded (single-step)", got)
	}
	h.eval(now, bad)
	h.eval(now, bad)
	if got := h.current(); got != Shedding {
		t.Fatalf("after 4 bad evals: %v, want shedding", got)
	}

	// Recovery is slower: RecoverAfter = 3 good evaluations per step, and a
	// bad sample in between resets the streak.
	h.eval(now, good)
	h.eval(now, good)
	h.eval(now, bad) // resets goodStreak (and counts toward escalation instead)
	h.eval(now, good)
	h.eval(now, good)
	if got := h.current(); got != Shedding {
		t.Fatalf("recovery streak not reset by interleaved bad eval: %v", got)
	}
	h.eval(now, good)
	if got := h.current(); got != Degraded {
		t.Fatalf("after 3 consecutive good evals: %v, want degraded", got)
	}
	h.eval(now, good)
	h.eval(now, good)
	h.eval(now, good)
	if got := h.current(); got != Healthy {
		t.Fatalf("after 6 consecutive good evals: %v, want healthy", got)
	}

	// Every transition was journaled as a single step.
	var steps int
	for _, ev := range j.Snapshot() {
		if ev.Kind != "health" {
			continue
		}
		steps++
		from, to := healthLevel(t, ev.Fields["from"]), healthLevel(t, ev.Fields["to"])
		if d := to - from; d != 1 && d != -1 {
			t.Errorf("journaled transition %v -> %v is not a single step", ev.Fields["from"], ev.Fields["to"])
		}
	}
	if steps != 4 {
		t.Errorf("journaled %d health transitions, want 4", steps)
	}
}

// healthLevel maps a journaled state name back onto the ladder.
func healthLevel(t *testing.T, v any) int {
	t.Helper()
	switch v {
	case "healthy":
		return 0
	case "degraded":
		return 1
	case "shedding":
		return 2
	}
	t.Fatalf("unknown health state in journal: %v", v)
	return -1
}

// TestHealthEvalThrottle pins the CAS election: within one EvalInterval only
// the first caller is due; a negative interval disables the throttle.
func TestHealthEvalThrottle(t *testing.T) {
	h, _ := testTracker(HealthConfig{EvalInterval: time.Minute})
	now := time.Now()
	if !h.due(now) {
		t.Fatal("first caller must be due")
	}
	if h.due(now.Add(time.Second)) {
		t.Fatal("second caller within the interval must not be due")
	}
	if !h.due(now.Add(2 * time.Minute)) {
		t.Fatal("caller after the interval must be due")
	}

	always, _ := testTracker(HealthConfig{EvalInterval: -1})
	if !always.due(now) || !always.due(now) {
		t.Fatal("negative interval must disable the throttle")
	}
}

// TestHealthDefaults pins the derived QueueHigh and the zero-value fills.
func TestHealthDefaults(t *testing.T) {
	c := HealthConfig{}.withDefaults(100)
	if c.QueueHigh != 50 {
		t.Errorf("QueueHigh = %d, want 50 (half the queue bound)", c.QueueHigh)
	}
	if c.DegradeWaitP99 != 25*time.Millisecond || c.ShedWaitP99 != 250*time.Millisecond {
		t.Errorf("wait thresholds = %v/%v", c.DegradeWaitP99, c.ShedWaitP99)
	}
	if c.EscalateAfter != 2 || c.RecoverAfter != 3 {
		t.Errorf("streaks = %d/%d, want 2/3", c.EscalateAfter, c.RecoverAfter)
	}
	if c := (HealthConfig{}).withDefaults(0); c.QueueHigh != 1 {
		t.Errorf("QueueHigh floor = %d, want 1", c.QueueHigh)
	}
}

// TestEvalHealthZeroAllocSteady pins the cost of the clock the estimate path
// now carries: an evaluation that leaves the state where it is — the wait
// window read and rotated, the signals gathered and classified — allocates
// nothing. (A transition allocates its event; that is once per state change.)
func TestEvalHealthZeroAllocSteady(t *testing.T) {
	srv, _, _, _, _ := newTestServerOpts(t, Options{Health: HealthConfig{EvalInterval: -1}})
	now := time.Now()
	n := testing.AllocsPerRun(200, func() {
		srv.met.checkoutWait.Observe(0.001)
		now = now.Add(time.Second) // every fifth evaluation rotates the window ring
		srv.evalHealth(now)
	})
	if n != 0 {
		t.Errorf("a state-preserving evalHealth allocates %v times, want 0", n)
	}
	if got := srv.HealthState(); got != Healthy {
		t.Errorf("state = %v after healthy evaluations", got)
	}
}

// TestWaitWindowForgets pins the window the health machine reads: a burst of
// slow checkouts shows in the p99 while it is inside the 60-second window
// and is gone once the ring has rolled past it, however large it stays in
// the lifetime histogram.
func TestWaitWindowForgets(t *testing.T) {
	h := obs.NewHistogram(obs.LatencyOpts())
	w := newWaitWindow(h)
	t0 := time.Unix(1000, 0)
	if got := w.p99(t0); got != 0 {
		t.Fatalf("fresh window p99 = %v, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if got := w.p99(t0.Add(time.Second)); got < 0.25 {
		t.Fatalf("p99 with the burst inside the window = %v, want ~0.5", got)
	}
	var last float64
	for s := 5; s <= 70; s += 5 {
		h.Observe(0.0005)
		last = w.p99(t0.Add(time.Duration(s) * time.Second))
	}
	if last > 0.001 {
		t.Errorf("p99 70s after the burst = %v: the window did not roll past it (lifetime p99 %v)", last, h.Quantile(0.99))
	}
}
