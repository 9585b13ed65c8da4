package ce

import (
	"math"

	"warper/internal/dataset"
	"warper/internal/query"
)

// HistogramEstimator is a classical, non-learned baseline: per-column
// equi-depth histograms combined under the attribute-value-independence
// assumption. §2 of the paper contrasts workload-driven models with
// data-driven ones — this estimator is the simplest member of the latter
// family: it ignores the query workload entirely, so workload drifts cannot
// hurt it, but it must be rebuilt after data drifts and its independence
// assumption caps accuracy on correlated columns.
type HistogramEstimator struct {
	tbl  *dataset.Table
	bins int
	// bounds[c] holds the bin edges of column c (len bins+1, ascending).
	bounds  [][]float64
	numRows float64
}

// NewHistogramEstimator builds equi-depth histograms with the given number
// of bins per column.
func NewHistogramEstimator(t *dataset.Table, bins int) *HistogramEstimator {
	if bins < 1 {
		bins = 64
	}
	h := &HistogramEstimator{tbl: t, bins: bins}
	h.rebuild()
	return h
}

// rebuild reads the equi-depth edges off the table's shared sorted row
// order (the annotator's scan index), so an estimator over an unchanged
// table sorts nothing. It replaces bounds rather than writing into them: a
// Clone taken earlier keeps its own edges.
func (h *HistogramEstimator) rebuild() {
	n := h.tbl.NumRows()
	h.numRows = float64(n)
	h.bounds = make([][]float64, h.tbl.NumCols())
	order, _ := h.tbl.SortedOrder()
	for c, col := range h.tbl.Cols {
		edges := make([]float64, h.bins+1)
		for b := 0; n > 0 && b <= h.bins; b++ {
			edges[b] = col.Vals[order[c][b*(n-1)/h.bins]]
		}
		h.bounds[c] = edges
	}
}

// selectivity estimates the fraction of rows with lo <= col <= hi as
// massLE(hi) - massLT(lo), which handles duplicate-edge runs (heavy values
// in equi-depth histograms) and equality predicates correctly.
func (h *HistogramEstimator) selectivity(c int, lo, hi float64) float64 {
	edges := h.bounds[c]
	if len(edges) < 2 || h.numRows == 0 {
		return 1
	}
	sel := h.massLE(edges, hi) - h.massLT(edges, lo)
	if sel <= 0 && lo == hi && lo >= edges[0] && lo <= edges[len(edges)-1] {
		// Equality on a non-heavy value inside the domain: half a bin.
		sel = 0.5 / float64(len(edges)-1)
	}
	return mathClamp01(sel)
}

// massLE returns the approximate fraction of values <= x. Duplicate-edge
// runs (bins whose both edges equal a heavy value) count fully.
func (h *HistogramEstimator) massLE(edges []float64, x float64) float64 {
	last := len(edges) - 1
	if x < edges[0] {
		return 0
	}
	if x >= edges[last] {
		return 1
	}
	// Largest b with edges[b] <= x. Hand-rolled binary search: a
	// sort.Search closure would capture edges and x, and this runs on the
	// allocation-free serving path.
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if edges[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	ub := lo - 1
	if edges[ub] == x {
		return float64(ub) / float64(last)
	}
	frac := 0.0
	if span := edges[ub+1] - edges[ub]; span > 0 {
		frac = (x - edges[ub]) / span
	}
	return (float64(ub) + frac) / float64(last)
}

// massLT returns the approximate fraction of values strictly below x.
// Duplicate-edge runs at x are excluded.
func (h *HistogramEstimator) massLT(edges []float64, x float64) float64 {
	last := len(edges) - 1
	if x <= edges[0] {
		return 0
	}
	if x > edges[last] {
		return 1
	}
	// Smallest b with edges[b] >= x. Hand-rolled like massLE: this runs on
	// the serving fallback path, which must stay allocation-free.
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if edges[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	lb := lo
	if lb <= last && edges[lb] == x {
		return float64(lb) / float64(last)
	}
	b := lb - 1
	frac := 0.0
	if span := edges[b+1] - edges[b]; span > 0 {
		frac = (x - edges[b]) / span
	}
	return (float64(b) + frac) / float64(last)
}

// Estimate implements Estimator under attribute-value independence.
// Estimates deliberately go stale after a data drift until Update rebuilds
// the histograms — data-driven models have no incremental adaptation path
// (the §2 contrast this baseline exists to demonstrate).
func (h *HistogramEstimator) Estimate(p query.Predicate) float64 {
	sel := 1.0
	for c := range h.bounds {
		sel *= h.selectivity(c, p.Lows[c], p.Highs[c])
	}
	return sel * h.numRows
}

// Train implements Estimator: histograms ignore the workload; building
// happens from the data.
func (h *HistogramEstimator) Train([]query.Labeled) error { h.rebuild(); return nil }

// Update implements Estimator: rebuild from the current table (the only
// adaptation a data-driven model supports).
func (h *HistogramEstimator) Update([]query.Labeled) error { h.rebuild(); return nil }

// Policy implements Estimator.
func (h *HistogramEstimator) Policy() UpdatePolicy { return Retrain }

// Clone implements Estimator.
func (h *HistogramEstimator) Clone() Estimator {
	c := *h
	c.bounds = make([][]float64, len(h.bounds))
	for i, b := range h.bounds {
		c.bounds[i] = append([]float64(nil), b...)
	}
	return &c
}

// Name implements Estimator.
func (h *HistogramEstimator) Name() string { return "histogram" }

func mathClamp01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
