// Package resilience hardens the annotation path of the Warper pipeline.
//
// Annotation (the 𝔸 module, §4.3) is the adaptation stage whose source a
// deployment may back with an external system — a DBMS executing
// ground-truth counts — that can time out, fail transiently, or hang. The
// only in-tree source is the in-memory exact count, which fails only on a
// cancelled context or a wrong-dimension predicate. This package wraps any
// annotator.Source with per-attempt timeouts and capped exponential backoff
// with seeded jitter, so a flaky ground-truth source degrades or fails a
// period instead of stalling it. Serving health never reads its outcome: a
// failed period rolls back, and the served model stays reachable.
//
// Everything here is deterministic by construction: jitter comes from an
// injected seeded *rand.Rand (never the global source), so two runs with the
// same seed and fault plan retry identically. The package is covered by the
// nondeterminism and panicfree lint rules alongside the algorithm packages.
package resilience

import (
	"errors"
	"time"
)

// ErrInjected marks a fault produced by the Faulty test harness, so tests
// can tell injected failures from real ones.
var ErrInjected = errors.New("resilience: injected fault")

// Events is an optional observation seam: the wrapper reports retries and
// attempt timeouts here so the serve layer can export them as metrics
// without this package importing obs. Nil callbacks are skipped. Callbacks
// run synchronously on the calling goroutine and must not call back into the
// wrapper.
type Events struct {
	// Retry fires before each re-attempt, with the 1-based number of the
	// attempt that just failed and its error.
	Retry func(attempt int, err error)
	// Timeout fires when an attempt was killed by the per-attempt deadline
	// (not by the caller's context).
	Timeout func(attempt int)
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
