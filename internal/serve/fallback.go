package serve

import (
	"sync/atomic"

	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
)

// This file implements the estimator fallback ladder: the cheap,
// always-available tier an estimate drops to when the learned model cannot
// be reached in budget — checkout missed its deadline, the annotation
// breaker is open, or the health machine has left healthy. CardOOD's thesis
// (PAPERS.md) is that learned CEs need a story for "the model can't be
// trusted"; overload is the sibling problem, "the model can't be *reached*",
// and the answer is the same: keep a classical estimator warm next to the
// learned one.
//
// The ladder is one rung: a ce.HistogramEstimator built from the live table
// — data-driven, workload-blind, immune to every serving-side failure
// because it is a plain in-memory lookup with no pool, no locks and no
// allocations. The server builds it before it serves (the adapter's table is
// never nil), so there is always a histogram to answer from.

// fallbackBins is the per-column bin count of the histogram tier, matching
// NewHistogramEstimator's own default. A rebuild reads 65 edges per column
// off the table's shared sorted order — microseconds once the annotator has
// built that order for the period's counts.
const fallbackBins = 64

// fallbackLadder holds the histogram behind an atomic pointer so the
// estimate hot path reads it lock- and allocation-free. refresh publishes
// fully-built replacements; a published histogram is never mutated again.
type fallbackLadder struct {
	hist atomic.Pointer[ce.HistogramEstimator]
	// histVersion/histRows are the table state hist was built from. Only
	// refresh touches them, and refresh calls are serialized (construction,
	// then periodMu).
	histVersion, histRows int
}

func newFallbackLadder() *fallbackLadder { return &fallbackLadder{} }

// refresh rebuilds the histogram from the live table — unless the table is
// as the current histogram saw it, which is most periods. Called at
// construction and under periodMu after every successful swap — never on
// the estimate path — so the table is not mid-mutation.
func (f *fallbackLadder) refresh(tbl *dataset.Table) {
	if f.hist.Load() == nil || f.histVersion != tbl.Version || f.histRows != tbl.NumRows() {
		f.histVersion, f.histRows = tbl.Version, tbl.NumRows()
		f.hist.Store(ce.NewHistogramEstimator(tbl, fallbackBins))
	}
}

// estimate answers from the histogram.
func (f *fallbackLadder) estimate(p query.Predicate) float64 {
	return f.hist.Load().Estimate(p)
}
