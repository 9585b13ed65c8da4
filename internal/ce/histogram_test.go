package ce

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"warper/internal/annotator"
	"warper/internal/dataset"
	"warper/internal/metrics"
	"warper/internal/query"
	"warper/internal/workload"
)

func histFixture(t *testing.T) (*dataset.Table, *query.Schema, *annotator.Annotator) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	tbl := dataset.PRSA(4000, rng)
	return tbl, query.SchemaOf(tbl), annotator.New(tbl)
}

func TestHistogramFullRangeIsRowCount(t *testing.T) {
	tbl, sch, _ := histFixture(t)
	h := NewHistogramEstimator(tbl, 64)
	got := h.Estimate(query.NewFullRange(sch))
	if math.Abs(got-float64(tbl.NumRows())) > 1 {
		t.Errorf("full-range estimate = %v, want %d", got, tbl.NumRows())
	}
}

func TestHistogramSingleColumnAccuracy(t *testing.T) {
	tbl, sch, ann := histFixture(t)
	h := NewHistogramEstimator(tbl, 64)
	rng := rand.New(rand.NewSource(32))
	g := workload.New("w1", tbl, sch, workload.Options{MinConstrained: 1, MaxConstrained: 1})
	var ests, acts []float64
	for i := 0; i < 60; i++ {
		p := g.Gen(rng)
		ests = append(ests, h.Estimate(p))
		acts = append(acts, annCountOK(t, ann, p))
	}
	// Single-column ranges have no independence error; equi-depth binning
	// should be quite accurate.
	if gmq := metrics.GMQ(ests, acts); gmq > 2.0 {
		t.Errorf("single-column GMQ = %v, want < 2", gmq)
	}
}

func TestHistogramWorkloadDriftImmunity(t *testing.T) {
	// A data-driven estimator's accuracy must not change when only the
	// workload drifts — the §2 contrast with workload-driven models.
	tbl, sch, ann := histFixture(t)
	h := NewHistogramEstimator(tbl, 64)
	rng := rand.New(rand.NewSource(33))
	opts := workload.Options{MinConstrained: 1, MaxConstrained: 1}
	gmqOn := func(spec string) float64 {
		g := workload.New(spec, tbl, sch, opts)
		var ests, acts []float64
		for i := 0; i < 60; i++ {
			p := g.Gen(rng)
			ests = append(ests, h.Estimate(p))
			acts = append(acts, annCountOK(t, ann, p))
		}
		return metrics.GMQ(ests, acts)
	}
	g1 := gmqOn("w1")
	g4 := gmqOn("w4")
	if g4 > g1*2.5 {
		t.Errorf("histogram degraded across workloads: w1=%v w4=%v", g1, g4)
	}
}

func TestHistogramStaleAfterDataDriftUntilUpdate(t *testing.T) {
	tbl, sch, _ := histFixture(t)
	h := NewHistogramEstimator(tbl, 64)
	full := query.NewFullRange(sch)
	before := h.Estimate(full)
	dataset.SortTruncateHalf(tbl, 1)
	// Without Update the estimator still reports the old row count.
	if got := h.Estimate(full); got != before {
		t.Errorf("estimate changed without rebuild: %v vs %v", got, before)
	}
	if err := h.Update(nil); err != nil {
		t.Fatalf("Update: %v", err)
	}
	after := h.Estimate(query.NewFullRange(query.SchemaOf(tbl)))
	if math.Abs(after-float64(tbl.NumRows())) > 1 {
		t.Errorf("post-rebuild full-range = %v, want %d", after, tbl.NumRows())
	}
}

// TestHistogramEdgesMatchSortedValues pins the edges read off the table's
// shared sorted order to the definition they replaced: bin b's edge is
// element b·(n−1)/bins of the column's values sorted by sort.Float64s (NaN
// cells first), before and after a data drift.
func TestHistogramEdgesMatchSortedValues(t *testing.T) {
	tbl, _, _ := histFixture(t)
	tbl.Cols[2].Vals[17] = math.NaN()
	tbl.Cols[2].Vals[1800] = math.NaN()
	check := func(h *HistogramEstimator) {
		t.Helper()
		for c, col := range tbl.Cols {
			sorted := append([]float64(nil), col.Vals...)
			sort.Float64s(sorted)
			for b, got := range h.bounds[c] {
				want := sorted[b*(len(sorted)-1)/h.bins]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("column %d edge %d = %v, want %v", c, b, got, want)
				}
			}
		}
	}
	h := NewHistogramEstimator(tbl, 64)
	check(h)
	dataset.UpdateDrift(tbl, 0.3, 1, rand.New(rand.NewSource(34)))
	if err := h.Update(nil); err != nil {
		t.Fatal(err)
	}
	check(h)
	if e := NewHistogramEstimator(dataset.NewTable("empty", &dataset.Column{Name: "a"}), 8); e.Estimate(query.Predicate{Lows: []float64{0}, Highs: []float64{1}}) != 0 {
		t.Error("empty-table histogram estimates rows")
	}
}

func TestHistogramImplementsEstimator(t *testing.T) {
	tbl, _, _ := histFixture(t)
	var e Estimator = NewHistogramEstimator(tbl, 16)
	if e.Name() != "histogram" || e.Policy() != Retrain {
		t.Error("metadata wrong")
	}
	c := e.Clone().(*HistogramEstimator)
	c.bounds[0][0] = -999
	if e.(*HistogramEstimator).bounds[0][0] == -999 {
		t.Error("Clone aliases bounds")
	}
}

func TestHistogramEqualityPredicates(t *testing.T) {
	tbl, sch, ann := histFixture(t)
	h := NewHistogramEstimator(tbl, 64)
	// Categorical equality: station has 5 distinct values with heavy mass.
	c := tbl.ColIndex("station")
	p := query.NewFullRange(sch)
	p.SetEquals(c, 2)
	est := h.Estimate(p)
	truth := annCountOK(t, ann, p)
	if est <= 0 {
		t.Fatalf("equality estimate = %v, want > 0", est)
	}
	if q := metrics.QError(est, truth); q > 5 {
		t.Errorf("equality q-error = %v (est %v, true %v)", q, est, truth)
	}
}

// annCountOK unwraps annotator.Count for well-formed predicates.
func annCountOK(t *testing.T, ann *annotator.Annotator, p query.Predicate) float64 {
	t.Helper()
	c, err := ann.Count(context.Background(), p)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return c
}

// TestHistogramEstimateAllocationFree pins the fallback-ladder contract:
// serving a degraded estimate from the histogram tier must not allocate
// (both massLE and massLT binary searches are hand-rolled for this).
func TestHistogramEstimateAllocationFree(t *testing.T) {
	tbl, sch, _ := histFixture(t)
	h := NewHistogramEstimator(tbl, 64)
	rng := rand.New(rand.NewSource(7))
	ps := make([]query.Predicate, 16)
	for i := range ps {
		p := query.NewFullRange(sch)
		c := rng.Intn(sch.NumCols())
		lo := sch.Mins[c] + rng.Float64()*(sch.Maxs[c]-sch.Mins[c])/2
		p.SetRange(c, lo, lo+(sch.Maxs[c]-sch.Mins[c])/4)
		ps[i] = p
	}
	i := 0
	if allocs := testing.AllocsPerRun(256, func() {
		h.Estimate(ps[i%len(ps)])
		i++
	}); allocs > 0 {
		t.Errorf("HistogramEstimator.Estimate allocates %.2f/op, want 0", allocs)
	}
}
