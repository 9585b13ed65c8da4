// Package resilience hardens the annotation path of the Warper pipeline.
//
// Annotation (the 𝔸 module, §4.3) is the only adaptation stage that talks to
// an external system in production — the DBMS executing ground-truth counts.
// That dependency can time out, fail transiently, or hang. This package wraps
// any annotator.Source with per-attempt timeouts, capped exponential backoff
// with seeded jitter, and a counting circuit breaker, so a flaky ground-truth
// source degrades a period instead of stalling or killing the server.
//
// Everything here is deterministic by construction: jitter comes from an
// injected seeded *rand.Rand (never the global source), and the breaker is
// count-based (consecutive failures / rejected-call counters) rather than
// wall-clock based, so two runs with the same seed and fault plan transition
// identically. The package is covered by the nondeterminism and panicfree
// lint rules alongside the algorithm packages.
package resilience

import (
	"errors"
	"time"
)

// ErrOpen is returned (without touching the underlying source) when the
// circuit breaker rejects a call.
var ErrOpen = errors.New("resilience: circuit breaker open")

// ErrInjected marks a fault produced by the Faulty test harness, so tests
// can tell injected failures from real ones.
var ErrInjected = errors.New("resilience: injected fault")

// State is a circuit-breaker state.
type State int

const (
	// Closed: calls flow through; consecutive failures are counted.
	Closed State = iota
	// Open: calls are rejected with ErrOpen; every cfg.ProbeEvery-th
	// rejected call is promoted to a half-open probe instead.
	Open
	// HalfOpen: a single probe call is in flight; its outcome decides
	// whether the breaker closes or re-opens.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Events is an optional observation seam: the wrapper reports retries,
// attempt timeouts, and breaker transitions here so the serve layer can
// export them as metrics without this package importing obs. Nil callbacks
// are skipped. Callbacks run synchronously on the calling goroutine and must
// not call back into the wrapper.
type Events struct {
	// Retry fires before each re-attempt, with the 1-based number of the
	// attempt that just failed and its error.
	Retry func(attempt int, err error)
	// Timeout fires when an attempt was killed by the per-attempt deadline
	// (not by the caller's context).
	Timeout func(attempt int)
	// BreakerState fires on every breaker state transition.
	BreakerState func(s State)
}

// Charger receives busy-time charges for failed or retried attempts, so the
// experiment harness can account wasted annotation work against the virtual
// clock exactly like useful work (§4.3). *simclock.Ledger satisfies it.
type Charger interface {
	Charge(name string, d time.Duration)
}

// RetryCharge is the ledger component name under which the wrapper charges
// the measured duration of failed annotation attempts.
const RetryCharge = "annotate_retry"
