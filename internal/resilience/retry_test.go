package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"warper/internal/query"
	"warper/internal/simclock"
)

// scripted is a Source whose call outcomes follow a fixed script: entry i
// is the error returned by call i (nil = success, card 1). Calls past the
// script succeed. hang entries block until ctx is cancelled.
type scripted struct {
	mu     sync.Mutex
	script []error
	calls  int
}

var errHang = errors.New("scripted hang sentinel")

func (s *scripted) next() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.calls
	s.calls++
	if i < len(s.script) {
		return s.script[i]
	}
	return nil
}

func (s *scripted) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scripted) Count(ctx context.Context, p query.Predicate) (float64, error) {
	err := s.next()
	if err == errHang {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func fastPolicy() Policy {
	return Policy{
		MaxAttempts:    3,
		AttemptTimeout: 50 * time.Millisecond,
		Seed:           1,
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	src := &scripted{script: []error{errBoom, errBoom, nil}}
	var retries int
	r := Wrap(src, fastPolicy(), Events{Retry: func(int, error) { retries++ }})
	v, err := r.Count(context.Background(), query.Predicate{})
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if v != 1 {
		t.Errorf("Count = %v, want 1", v)
	}
	if src.Calls() != 3 {
		t.Errorf("underlying calls = %d, want 3", src.Calls())
	}
	if retries != 2 {
		t.Errorf("retry events = %d, want 2", retries)
	}
}

func TestRetryExhaustionWrapsLastError(t *testing.T) {
	src := &scripted{script: []error{errBoom, errBoom, errBoom}}
	r := Wrap(src, fastPolicy(), Events{})
	_, err := r.Count(context.Background(), query.Predicate{})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
	if src.Calls() != 3 {
		t.Errorf("underlying calls = %d, want 3", src.Calls())
	}
}

// TestAttemptTimeoutFiresTimeoutEvent pins the hang path: a per-attempt
// deadline kills a hung call, records a timeout event, and retries.
func TestAttemptTimeoutFiresTimeoutEvent(t *testing.T) {
	src := &scripted{script: []error{errHang, nil}}
	var timeouts int
	pol := fastPolicy()
	pol.AttemptTimeout = 10 * time.Millisecond
	r := Wrap(src, pol, Events{Timeout: func(int) { timeouts++ }})
	v, err := r.Count(context.Background(), query.Predicate{})
	if err != nil {
		t.Fatalf("Count after hang: %v", err)
	}
	if v != 1 {
		t.Errorf("Count = %v, want 1", v)
	}
	if timeouts != 1 {
		t.Errorf("timeout events = %d, want 1", timeouts)
	}
}

// TestParentCancellationWinsOverRetry pins the abort-vs-degrade contract:
// when the caller's context is done, do() returns its error immediately and
// does not keep retrying.
func TestParentCancellationWinsOverRetry(t *testing.T) {
	src := &scripted{script: []error{errHang, errHang, errHang}}
	pol := fastPolicy()
	pol.AttemptTimeout = time.Minute // only the parent deadline can fire
	r := Wrap(src, pol, Events{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := r.Count(ctx, query.Predicate{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want parent deadline", err)
	}
	if src.Calls() != 1 {
		t.Errorf("underlying calls = %d, want 1 (no retry after parent deadline)", src.Calls())
	}
}

// TestCallerCancellationIsNotASourceFailure pins that an attempt whose
// caller gives up mid-count is not the source's failure: openAfter such
// calls leave the breaker closed and charge nothing under RetryCharge, and
// a half-open probe whose caller gives up re-opens the breaker instead of
// wedging it in half-open.
func TestCallerCancellationIsNotASourceFailure(t *testing.T) {
	pol := fastPolicy()
	pol.AttemptTimeout = time.Minute // only the caller's deadline can fire
	src := &scripted{script: []error{errHang, errHang, errHang, errHang, errHang}}
	var log chargeLog
	r := Wrap(src, pol, Events{}).WithCostLedger(&log)
	giveUp := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_, err := r.Count(ctx, query.Predicate{})
		return err
	}
	for i := 0; i < 5; i++ {
		if err := giveUp(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want the caller's deadline", i, err)
		}
	}
	if got := r.breaker.State(); got != Closed {
		t.Errorf("breaker = %v after five cancelled calls, want closed", got)
	}
	if len(log.names) != 0 {
		t.Errorf("charges = %v, want none for cancelled calls", log.names)
	}

	// Trip the breaker with real failures, then cancel the probe. With one
	// attempt per call, each call is one breaker decision.
	pol.MaxAttempts = 1
	src = &scripted{script: []error{errBoom, errBoom, errBoom, errBoom, errBoom, errHang, nil}}
	r = Wrap(src, pol, Events{})
	for i := 0; i < openAfter; i++ {
		if _, err := r.Count(context.Background(), query.Predicate{}); !errors.Is(err, errBoom) {
			t.Fatalf("tripping call %d: err = %v, want errBoom", i, err)
		}
	}
	rejectUntilProbe := func() {
		t.Helper()
		for i := 1; i < probeEvery; i++ {
			if _, err := r.Count(context.Background(), query.Predicate{}); !errors.Is(err, ErrOpen) {
				t.Fatalf("rejected call %d: err = %v, want ErrOpen", i, err)
			}
		}
	}
	rejectUntilProbe()
	if err := giveUp(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe: err = %v, want the caller's deadline", err)
	}
	if got := r.breaker.State(); got != Open {
		t.Fatalf("breaker = %v after a cancelled probe, want open", got)
	}
	rejectUntilProbe()
	if _, err := r.Count(context.Background(), query.Predicate{}); err != nil {
		t.Fatalf("next probe: %v", err)
	}
	if got := r.breaker.State(); got != Closed {
		t.Errorf("breaker = %v after a successful probe, want closed", got)
	}
}

// chargeLog is a Charger that records every charge in order.
type chargeLog struct{ names []string }

func (c *chargeLog) Charge(name string, _ time.Duration) { c.names = append(c.names, name) }

// TestFailedAttemptsChargedToLedger pins that every failed attempt charges
// its measured duration under RetryCharge, once per attempt, and that the
// successful final attempt is not charged as waste.
func TestFailedAttemptsChargedToLedger(t *testing.T) {
	src := &scripted{script: []error{errBoom, errBoom, nil}}
	var log chargeLog
	r := Wrap(src, fastPolicy(), Events{}).WithCostLedger(&log)
	if _, err := r.Count(context.Background(), query.Predicate{}); err != nil {
		t.Fatalf("Count: %v", err)
	}
	if len(log.names) != 2 || log.names[0] != RetryCharge || log.names[1] != RetryCharge {
		t.Errorf("charges = %v, want two under %q", log.names, RetryCharge)
	}
}

// The adapter's cost ledger is what WithCostLedger receives in production.
var _ Charger = (*simclock.Ledger)(nil)

// TestBreakerOpensAndFailsFast wires breaker + retry: once the failure
// streak trips the breaker, subsequent calls fail fast with ErrOpen without
// touching the source.
func TestBreakerOpensAndFailsFast(t *testing.T) {
	src := &scripted{script: []error{errBoom, errBoom, errBoom, errBoom, errBoom, errBoom}}
	var states []State
	r := Wrap(src, fastPolicy(), Events{BreakerState: func(s State) { states = append(states, s) }})

	// First call: 3 attempts, all fail; the breaker stays closed.
	if _, err := r.Count(context.Background(), query.Predicate{}); !errors.Is(err, errBoom) {
		t.Fatalf("first call err = %v, want errBoom", err)
	}
	if got := r.breaker.State(); got != Closed {
		t.Fatalf("breaker state after 3 failures = %v, want closed", got)
	}
	// Second call: attempts 4 and 5 fail and trip the breaker, which
	// rejects the third.
	if _, err := r.Count(context.Background(), query.Predicate{}); !errors.Is(err, ErrOpen) {
		t.Fatalf("tripping call err = %v, want ErrOpen", err)
	}
	if got := r.breaker.State(); got != Open {
		t.Fatalf("breaker state = %v, want open", got)
	}
	calls := src.Calls()
	if calls != openAfter {
		t.Errorf("source calls before the trip = %d, want %d", calls, openAfter)
	}
	// Third call: all attempts rejected by the breaker (rejections 2–4, no
	// probe before the 8th), source untouched.
	if _, err := r.Count(context.Background(), query.Predicate{}); !errors.Is(err, ErrOpen) {
		t.Fatalf("third call err = %v, want ErrOpen", err)
	}
	if src.Calls() != calls {
		t.Errorf("open breaker leaked %d calls to the source", src.Calls()-calls)
	}
	if len(states) != 1 || states[0] != Open {
		t.Errorf("state transitions = %v, want [open]", states)
	}
}

// TestSeededRunsAreIdentical pins the determinism acceptance criterion at
// the wrapper level: same seed + same script → identical call counts and
// identical jitter sequence (observed via ledger charges being the same
// count; durations differ but the control flow must not).
func TestSeededRunsAreIdentical(t *testing.T) {
	run := func() (int, error) {
		src := &scripted{script: []error{errBoom, nil, errBoom, errBoom, nil}}
		r := Wrap(src, fastPolicy(), Events{})
		var firstErr error
		for i := 0; i < 3; i++ {
			if _, err := r.Count(context.Background(), query.Predicate{}); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return src.Calls(), firstErr
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 {
		t.Errorf("call counts differ across seeded runs: %d vs %d", c1, c2)
	}
	if (e1 == nil) != (e2 == nil) {
		t.Errorf("error outcomes differ across seeded runs: %v vs %v", e1, e2)
	}
}
