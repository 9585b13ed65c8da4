package serve

import (
	"math"
	"sync/atomic"

	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
)

// This file implements the estimator fallback ladder: the cheap,
// always-available tiers an estimate drops to when the learned model cannot
// be reached in budget — checkout missed its deadline, the annotation
// breaker is open, or the health machine has left healthy. CardOOD's thesis
// (PAPERS.md) is that learned CEs need a story for "the model can't be
// trusted"; overload is the sibling problem, "the model can't be *reached*",
// and the answer is the same: keep a classical estimator warm next to the
// learned one.
//
// Tier 1 is a ce.HistogramEstimator built from the live table — data-driven,
// workload-blind, immune to every serving-side failure because it is a plain
// in-memory lookup with no pool, no locks and no allocations. Tier 2, when
// the histogram has no table to build from, is the cached scale prior of the
// last-swapped model: the geometric mean of its answers over a small
// deterministic probe ladder. A prior answer is a bad estimate and a great
// outage response — it keeps joins ordered by table size while the pool
// recovers.

// fallbackBins is the per-column bin count of the histogram tier, matching
// NewHistogramEstimator's own default. A rebuild reads 65 edges per column
// off the table's shared sorted order — microseconds once the annotator has
// built that order for the period's counts.
const fallbackBins = 64

// fallbackLadder holds the fallback tiers behind atomic pointers so the
// estimate hot path reads them lock- and allocation-free. refresh publishes
// fully-built replacements; a published histogram is never mutated again.
type fallbackLadder struct {
	hist atomic.Pointer[ce.HistogramEstimator]
	// histVersion/histRows are the table state hist was built from. Only
	// refresh touches them, and refresh calls are serialized (construction,
	// then periodMu).
	histVersion, histRows int
	// priorBits is math.Float64bits of the last-swap model prior (0 bits =
	// no prior yet).
	priorBits atomic.Uint64
}

func newFallbackLadder() *fallbackLadder { return &fallbackLadder{} }

// refresh rebuilds the histogram tier from the live table — unless the table
// is as the current histogram saw it, which is most periods — and recomputes
// the cached model prior from the just-swapped model. Called at construction
// and under periodMu after every successful swap — never on the estimate
// path — so the table is not mid-mutation and the model is not mid-training.
func (f *fallbackLadder) refresh(tbl *dataset.Table, model ce.Estimator, sch *query.Schema) {
	if tbl != nil && (f.hist.Load() == nil || f.histVersion != tbl.Version || f.histRows != tbl.NumRows()) {
		f.histVersion, f.histRows = tbl.Version, tbl.NumRows()
		f.hist.Store(ce.NewHistogramEstimator(tbl, fallbackBins))
	}
	if model != nil && sch != nil {
		f.priorBits.Store(math.Float64bits(modelPrior(model, sch)))
	}
}

// estimate answers from the cheapest available tier. The zero return (no
// histogram, no prior) only happens before the first refresh.
func (f *fallbackLadder) estimate(p query.Predicate) float64 {
	if h := f.hist.Load(); h != nil {
		return h.Estimate(p)
	}
	return math.Float64frombits(f.priorBits.Load())
}

// priorProbes are the quantile windows of the deterministic probe ladder,
// applied to every column: the full domain, each half, and the interquartile
// band. Four probes bound the prior between "everything" and "a selective
// conjunction", which is all a scale summary needs.
var priorProbes = [4][2]float64{{0, 1}, {0, 0.5}, {0.5, 1}, {0.25, 0.75}}

// modelPrior summarizes a model as the geometric mean of its estimates over
// the probe ladder. Deterministic by construction (the probes derive from
// the schema's column ranges, not from any RNG), so the cached prior is a
// pure function of the swapped model and the nondeterminism rule stays
// satisfiable on the serving stack.
func modelPrior(model ce.Estimator, sch *query.Schema) float64 {
	sum, n := 0.0, 0
	for _, fr := range priorProbes {
		p := query.NewFullRange(sch)
		for c := 0; c < sch.NumCols(); c++ {
			span := sch.Maxs[c] - sch.Mins[c]
			p.SetRange(c, sch.Mins[c]+fr[0]*span, sch.Mins[c]+fr[1]*span)
		}
		est := model.Estimate(p)
		if est > 0 && !math.IsInf(est, 1) && !math.IsNaN(est) {
			sum += math.Log(est)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
