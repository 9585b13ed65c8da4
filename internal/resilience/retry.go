package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"warper/internal/annotator"
	"warper/internal/query"
	"warper/internal/simclock"
)

// Policy parameterizes the resilient annotation wrapper. Zero values take
// defaults.
type Policy struct {
	// MaxAttempts bounds tries per call, including the first. Default 3.
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline layered under the
	// caller's context. Default 2s; negative disables.
	AttemptTimeout time.Duration
	// Seed seeds the jitter RNG. The wrapper never touches the global
	// math/rand source, so equal seeds give equal backoff sequences.
	Seed int64
}

// The retry backoff: the pre-jitter wait after the first failure, doubled
// per retry up to the cap.
const (
	baseBackoff = 5 * time.Millisecond
	maxBackoff  = 250 * time.Millisecond
)

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.AttemptTimeout == 0 {
		p.AttemptTimeout = 2 * time.Second
	}
	return p
}

// Resilient wraps an annotator.Source with retries and per-attempt
// timeouts. It implements annotator.Source itself, so it can stand anywhere
// an annotator does — including under another wrapper.
//
// Resilient is safe for concurrent use; the jitter RNG is mutex-guarded.
type Resilient struct {
	src     annotator.Source
	pol     Policy
	events  Events
	charger Charger

	mu  sync.Mutex
	rng *rand.Rand
}

var _ annotator.Source = (*Resilient)(nil)

// Wrap builds a resilient source around src. events callbacks may be nil.
func Wrap(src annotator.Source, pol Policy, events Events) *Resilient {
	pol = pol.withDefaults()
	return &Resilient{
		src:    src,
		pol:    pol,
		events: events,
		rng:    rand.New(rand.NewSource(pol.Seed)),
	}
}

// WithCostLedger directs failed-attempt durations to c under RetryCharge
// and returns the wrapper for chaining.
func (r *Resilient) WithCostLedger(c Charger) *Resilient {
	r.charger = c
	return r
}

// Count implements annotator.Source with the retry discipline.
func (r *Resilient) Count(ctx context.Context, p query.Predicate) (float64, error) {
	var v float64
	err := r.do(ctx, func(actx context.Context) error {
		var e error
		v, e = r.src.Count(actx, p)
		return e
	})
	if err != nil {
		return 0, err
	}
	return v, nil
}

// do runs op with up to pol.MaxAttempts tries. The caller's ctx always wins:
// its cancellation or deadline aborts the loop immediately (including backoff
// waits) and is returned verbatim, so callers can distinguish "the period was
// cancelled" from "the source kept failing". An attempt the caller cut short
// is therefore not a charged retry.
func (r *Resilient) do(ctx context.Context, op func(context.Context) error) error {
	var lastErr error
	for attempt := 1; attempt <= r.pol.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		actx, cancel := r.attemptCtx(ctx)
		w := simclock.StartWatch()
		err := op(actx)
		d := w.Stop()
		cancel()
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller gave up, the source did not fail: no retry charge.
			return cerr
		}
		// A failed attempt still burned real annotation work; charge it so
		// the virtual-clock cost model sees faults.
		if r.charger != nil {
			r.charger.Charge(RetryCharge, d)
		}
		if errors.Is(err, context.DeadlineExceeded) && r.events.Timeout != nil {
			// The per-attempt deadline fired, not the caller's.
			r.events.Timeout(attempt)
		}
		lastErr = err
		if attempt == r.pol.MaxAttempts {
			break
		}
		if r.events.Retry != nil {
			r.events.Retry(attempt, lastErr)
		}
		if err := r.backoff(ctx, attempt); err != nil {
			return err
		}
	}
	return fmt.Errorf("resilience: %d attempts failed: %w", r.pol.MaxAttempts, lastErr)
}

func (r *Resilient) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.pol.AttemptTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.pol.AttemptTimeout)
}

// backoff waits min(maxBackoff, baseBackoff·2^(attempt-1)) scaled by a
// uniform jitter factor in [0.5, 1), honoring ctx cancellation.
func (r *Resilient) backoff(ctx context.Context, attempt int) error {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	r.mu.Lock()
	jitter := 0.5 + float64(0.5*r.rng.Float64())
	r.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
