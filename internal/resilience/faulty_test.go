package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"warper/internal/query"
)

// TestFaultyDeterministicSequence pins the core harness property: two Faulty
// wrappers with the same plan replay the exact same fault sequence.
func TestFaultyDeterministicSequence(t *testing.T) {
	plan := FaultPlan{ErrRate: 0.3, Seed: 42}
	run := func() []bool {
		f := NewFaulty(&scripted{}, plan)
		outcomes := make([]bool, 50)
		for i := range outcomes {
			_, err := f.Count(context.Background(), query.Predicate{})
			outcomes[i] = err == nil
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	f := NewFaulty(&scripted{}, plan)
	for i := 0; i < 50; i++ {
		f.Count(context.Background(), query.Predicate{}) //nolint:errcheck // outcome counted via Stats
	}
	calls, errs, hangs := f.Stats()
	if calls != 50 || hangs != 0 {
		t.Fatalf("Stats = (%d, %d, %d), want 50 calls, 0 hangs", calls, errs, hangs)
	}
	// With ErrRate 0.3 over 50 seeded draws the count is fixed; pin it
	// loosely so a different rand version fails loudly, not flakily.
	if errs == 0 || errs == 50 {
		t.Errorf("injected errors = %d, want some but not all of 50", errs)
	}
}

// TestFaultyErrorIsErrInjected pins error identity so callers can tell
// injected faults from real ones.
func TestFaultyErrorIsErrInjected(t *testing.T) {
	f := NewFaulty(&scripted{}, FaultPlan{ErrRate: 1, Seed: 1})
	if _, err := f.Count(context.Background(), query.Predicate{}); !errors.Is(err, ErrInjected) {
		t.Errorf("err = %v, want ErrInjected", err)
	}
}

// TestFaultyHangBlocksUntilCancel pins the hang fault: the call must block
// until its context dies, then surface ctx.Err(). The deadline is the
// context's own: a stopwatch started after WithTimeout would miss the time
// already spent and could read a correct hang as early.
func TestFaultyHangBlocksUntilCancel(t *testing.T) {
	f := NewFaulty(&scripted{}, FaultPlan{HangRate: 1, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := f.Count(ctx, query.Predicate{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if deadline, _ := ctx.Deadline(); time.Now().Before(deadline) {
		t.Errorf("hang returned %v before the context deadline", time.Until(deadline))
	}
	_, _, hangs := f.Stats()
	if hangs != 1 {
		t.Errorf("hangs = %d, want 1", hangs)
	}
}

// TestFaultyLatencyDelaysCall pins the latency fault path.
func TestFaultyLatencyDelaysCall(t *testing.T) {
	f := NewFaulty(&scripted{}, FaultPlan{Latency: 10 * time.Millisecond, Seed: 1})
	start := time.Now()
	if _, err := f.Count(context.Background(), query.Predicate{}); err != nil {
		t.Fatalf("Count: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("latency fault added only %v, want >= Latency/2", d)
	}
	// Latency also honors cancellation.
	f2 := NewFaulty(&scripted{}, FaultPlan{Latency: time.Minute, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := f2.Count(ctx, query.Predicate{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("latency under cancelled ctx: err = %v, want deadline exceeded", err)
	}
}

// TestFaultyUnderResilientRecovers is the integration smoke test: a 30%
// error rate source behind the resilient wrapper still completes a batch of
// calls, because retries absorb the transient failures.
func TestFaultyUnderResilientRecovers(t *testing.T) {
	f := NewFaulty(&scripted{}, FaultPlan{ErrRate: 0.3, Seed: 7})
	pol := fastPolicy()
	pol.MaxAttempts = 5
	r := Wrap(f, pol, Events{})
	ok := 0
	for i := 0; i < 20; i++ {
		if _, err := r.Count(context.Background(), query.Predicate{}); err == nil {
			ok++
		}
	}
	if ok < 18 {
		t.Errorf("only %d/20 calls succeeded through retries at 30%% fault rate", ok)
	}
}
