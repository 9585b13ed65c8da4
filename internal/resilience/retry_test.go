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

var (
	errBoom = errors.New("boom")
	errHang = errors.New("scripted hang sentinel")
)

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
// caller gives up mid-count is not the source's failure: such calls return
// the caller's error and charge nothing under RetryCharge.
func TestCallerCancellationIsNotASourceFailure(t *testing.T) {
	pol := fastPolicy()
	pol.AttemptTimeout = time.Minute // only the caller's deadline can fire
	src := &scripted{script: []error{errHang, errHang, errHang, errHang, errHang}}
	var log chargeLog
	r := Wrap(src, pol, Events{}).WithCostLedger(&log)
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := r.Count(ctx, query.Predicate{})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want the caller's deadline", i, err)
		}
	}
	if src.Calls() != 5 {
		t.Errorf("underlying calls = %d, want 5 (one per call, no retry)", src.Calls())
	}
	if len(log.names) != 0 {
		t.Errorf("charges = %v, want none for cancelled calls", log.names)
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
