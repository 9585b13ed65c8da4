package annotator

import (
	"context"

	"warper/internal/query"
)

// Source is the annotation seam between Warper and whatever executes
// ground-truth counts. Every implementation here counts over in-memory
// tables and fails only on a cancelled context or a wrong-dimension
// predicate; a deployment that backs 𝔸 with count(*) queries against a live
// DBMS gets a call that can be slow, flaky, or down. The interface is
// therefore context-aware (callers bound and cancel annotation work) and
// fallible (a failed count surfaces as an error the adaptation loop can
// absorb instead of a lost period).
//
// Implementations: *Annotator (exact, over the table's sorted-column scan
// index) and the wrappers in internal/resilience (retries and per-attempt
// timeouts, fault injection). Every label is an exact count: §4.3 prices each one as
// c_gt, and no approximate source stands in for a failed one. The
// adaptation loop and the drift telemetry label one predicate at a time, so
// one method is the whole seam; the exact annotator's AnnotateAll is a
// concrete convenience for labeling training sets. The JoinAnnotator follows
// the same shape over join queries but is not a Source — its query type
// differs.
type Source interface {
	// Count returns the cardinality of one predicate. It returns promptly
	// with ctx.Err() once the context is cancelled.
	Count(ctx context.Context, p query.Predicate) (float64, error)
}

// Interface conformance of the in-package annotator.
var _ Source = (*Annotator)(nil)

// ctxCheckRows is how many rows the counting loops process between context
// polls: frequent enough that cancellation lands within microseconds on the
// tables this reproduction uses, rare enough that the atomic load in
// ctx.Err() stays invisible next to the per-row work.
const ctxCheckRows = 4096
