package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"warper/internal/annotator"
	"warper/internal/query"
)

// FaultPlan describes a deterministic fault schedule for a Faulty source.
// All probabilities are per Count call (one "RPC"); draws come from one
// seeded RNG in call order, so a given plan replays identically across runs
// with the same call sequence.
type FaultPlan struct {
	// ErrRate is the probability a call fails immediately with ErrInjected.
	ErrRate float64
	// HangRate is the probability a call blocks until its context is
	// cancelled (modeling a stuck DBMS connection). It is evaluated after
	// ErrRate on the same draw: u < ErrRate → error, u < ErrRate+HangRate
	// → hang.
	HangRate float64
	// Latency adds a uniform delay in [Latency/2, Latency) to calls that
	// neither fail nor hang, modeling a slow source. Zero adds none.
	Latency time.Duration
	// Seed seeds the fault RNG.
	Seed int64
}

// Faulty wraps an annotator.Source with deterministic fault injection. It is
// the test double for the resilience stack: the chaos tests and the golden
// partial-period test build one of these.
// Safe for concurrent use.
type Faulty struct {
	src  annotator.Source
	plan FaultPlan

	mu    sync.Mutex
	rng   *rand.Rand
	calls int
	// Fault counters, readable via Stats.
	errs  int
	hangs int
}

var _ annotator.Source = (*Faulty)(nil)

// NewFaulty wraps src with the given fault plan.
func NewFaulty(src annotator.Source, plan FaultPlan) *Faulty {
	return &Faulty{src: src, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Stats returns (calls, injected errors, injected hangs) so far.
func (f *Faulty) Stats() (calls, errs, hangs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.errs, f.hangs
}

type faultKind int

const (
	faultNone faultKind = iota
	faultErr
	faultHang
)

// decide consumes exactly two RNG draws per call (fault selector + latency
// jitter) regardless of outcome, so the fault sequence of later calls does
// not depend on earlier outcomes' branches.
func (f *Faulty) decide() (faultKind, time.Duration, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	n := f.calls
	u := f.rng.Float64()
	lat := time.Duration(0)
	if f.plan.Latency > 0 {
		lat = time.Duration((0.5 + float64(0.5*f.rng.Float64())) * float64(f.plan.Latency))
	} else {
		_ = f.rng.Float64()
	}
	switch {
	case u < f.plan.ErrRate:
		f.errs++
		return faultErr, 0, n
	case u < f.plan.ErrRate+f.plan.HangRate:
		f.hangs++
		return faultHang, 0, n
	default:
		return faultNone, lat, n
	}
}

// inject applies the decided fault. It returns a non-nil error for injected
// faults; faultNone falls through (after any latency) so the caller invokes
// the wrapped source.
func (f *Faulty) inject(ctx context.Context) error {
	kind, lat, n := f.decide()
	switch kind {
	case faultErr:
		return fmt.Errorf("call %d: %w", n, ErrInjected)
	case faultHang:
		// Model a stuck connection: block until the caller gives up.
		<-ctx.Done()
		return ctx.Err()
	default:
		if lat > 0 {
			t := time.NewTimer(lat)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
}

// Count implements annotator.Source.
func (f *Faulty) Count(ctx context.Context, p query.Predicate) (float64, error) {
	if err := f.inject(ctx); err != nil {
		return 0, err
	}
	return f.src.Count(ctx, p)
}
