package annotator

import (
	"context"

	"warper/internal/query"
)

// Source is the annotation seam between Warper and whatever executes
// ground-truth counts. In this reproduction every implementation counts
// over in-memory tables, but in production 𝔸 issues count(*) queries against a
// live DBMS — a call that can be slow, flaky, or down. The interface is
// therefore context-aware (callers bound and cancel annotation work) and
// fallible (a failed count surfaces as an error the adaptation loop can
// absorb instead of a lost period).
//
// Implementations: *Annotator (exact, over the table's sorted-column scan
// index), *Sampled (approximate, over a row sample), and the wrappers in
// internal/resilience (retry/breaker hardening, fault injection). The
// JoinAnnotator follows the same shape over join queries but is not a
// Source — its query type differs.
type Source interface {
	// Count returns the cardinality of one predicate. It returns promptly
	// with ctx.Err() once the context is cancelled.
	Count(ctx context.Context, p query.Predicate) (float64, error)
	// AnnotateAll labels a batch of predicates. An error means the batch is
	// incomplete and no partial results are returned; callers that want
	// per-predicate degradation should loop over Count instead.
	AnnotateAll(ctx context.Context, ps []query.Predicate) ([]query.Labeled, error)
}

// Interface conformance of the in-package annotators.
var (
	_ Source = (*Annotator)(nil)
	_ Source = (*Sampled)(nil)
)

// ctxCheckRows is how many rows the counting loops process between context
// polls: frequent enough that cancellation lands within microseconds on the
// tables this reproduction uses, rare enough that the atomic load in
// ctx.Err() stays invisible next to the per-row work.
const ctxCheckRows = 4096
