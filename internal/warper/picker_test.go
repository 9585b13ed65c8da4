package warper

import (
	"math/rand"
	"slices"
	"testing"

	"warper/internal/ce"
	"warper/internal/pool"
	"warper/internal/query"
)

// constEstimator always predicts the same cardinality.
type constEstimator struct{ v float64 }

func (c constEstimator) Train([]query.Labeled) error      { return nil }
func (c constEstimator) Update([]query.Labeled) error     { return nil }
func (c constEstimator) Estimate(query.Predicate) float64 { return c.v }
func (c constEstimator) Policy() ce.UpdatePolicy          { return ce.FineTune }
func (c constEstimator) Clone() ce.Estimator              { return c }
func (c constEstimator) Name() string                     { return "const" }

func genEntry(conf float64, z ...float64) *pool.Entry {
	return &pool.Entry{
		Pred:   query.Predicate{Lows: []float64{0}, Highs: []float64{1}},
		GT:     pool.NoGT,
		Source: pool.SrcGen,
		Conf:   conf,
		Z:      z,
	}
}

func TestPickGeneratedPrefersHighConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pk := &Picker{Strategy: StrategyWarper}
	low := genEntry(0.01)
	high := genEntry(0.99)
	cands := []*pool.Entry{low, high}
	highCount := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		picked := pk.PickGenerated(cands, 1, rng)
		if len(picked) == 1 && picked[0] == high {
			highCount++
		}
	}
	if float64(highCount)/trials < 0.9 {
		t.Errorf("high-confidence entry picked only %d/%d times", highCount, trials)
	}
}

func TestPickGeneratedEmptyAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pk := &Picker{Strategy: StrategyWarper}
	if got := pk.PickGenerated(nil, 5, rng); got != nil {
		t.Error("expected nil for no candidates")
	}
	if got := pk.PickGenerated([]*pool.Entry{genEntry(1)}, 0, rng); got != nil {
		t.Error("expected nil for zero pick count")
	}
}

func TestPickGeneratedDeduplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pk := &Picker{Strategy: StrategyWarper}
	e := genEntry(1)
	picked := pk.PickGenerated([]*pool.Entry{e}, 50, rng)
	if len(picked) != 1 {
		t.Errorf("picked %d entries from a single candidate", len(picked))
	}
}

func TestPickRandomStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pk := &Picker{Strategy: StrategyRandom}
	cands := []*pool.Entry{genEntry(0.0), genEntry(0.0), genEntry(1.0)}
	picked := pk.PickGenerated(cands, 10, rng)
	if len(picked) == 0 || len(picked) > 3 {
		t.Errorf("random pick returned %d", len(picked))
	}
}

func TestPickStratifiedSpansErrorRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pk := &Picker{Strategy: StrategyWarper, Buckets: 3, KNN: 1}
	m := constEstimator{v: 100}
	// Labeled references with widely varying errors: gt 100 (q=1),
	// gt 1000 (q=10), gt 10000 (q=100).
	mkLabeled := func(gt float64, z float64) *pool.Entry {
		return &pool.Entry{
			Pred:   query.Predicate{Lows: []float64{z}, Highs: []float64{z + 1}},
			GT:     gt,
			Source: pool.SrcTrain,
			Z:      []float64{z},
		}
	}
	labeled := []*pool.Entry{
		mkLabeled(100, 0), mkLabeled(110, 0.1),
		mkLabeled(1000, 5), mkLabeled(1100, 5.1),
		mkLabeled(10000, 10), mkLabeled(11000, 10.1),
	}
	// Unlabeled candidates cluster near each error regime in z-space.
	var cands []*pool.Entry
	for _, z := range []float64{0.05, 5.05, 10.05} {
		for i := 0; i < 5; i++ {
			cands = append(cands, &pool.Entry{
				Pred:   query.Predicate{Lows: []float64{z}, Highs: []float64{z + 1}},
				GT:     pool.NoGT,
				Source: pool.SrcNew,
				Z:      []float64{z + float64(i)*0.001},
			})
		}
	}
	picked := pk.PickStratified(m, labeled, cands, 30, rng)
	if len(picked) == 0 {
		t.Fatal("nothing picked")
	}
	// All three z-regions (error strata) should be represented.
	regions := map[int]bool{}
	for _, e := range picked {
		switch {
		case e.Z[0] < 2:
			regions[0] = true
		case e.Z[0] < 8:
			regions[1] = true
		default:
			regions[2] = true
		}
	}
	if len(regions) != 3 {
		t.Errorf("stratified pick covered %d/3 error regions", len(regions))
	}
}

func TestPickStratifiedLabeledCandidatesBucketDirectly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pk := &Picker{Strategy: StrategyWarper, Buckets: 2, KNN: 1}
	m := constEstimator{v: 100}
	labeled := []*pool.Entry{
		{Pred: query.Predicate{Lows: []float64{0}, Highs: []float64{1}}, GT: 100, Z: []float64{0}},
		{Pred: query.Predicate{Lows: []float64{1}, Highs: []float64{2}}, GT: 10000, Z: []float64{1}},
	}
	// Candidates carry stale labels (c1): bucketed by own error, no kNN.
	cands := []*pool.Entry{
		{Pred: query.Predicate{Lows: []float64{0}, Highs: []float64{1}}, GT: 100, Stale: true, Z: []float64{0}},
		{Pred: query.Predicate{Lows: []float64{1}, Highs: []float64{2}}, GT: 9000, Stale: true, Z: []float64{1}},
	}
	picked := pk.PickStratified(m, labeled, cands, 10, rng)
	if len(picked) != 2 {
		t.Errorf("picked %d, want both candidates across buckets", len(picked))
	}
}

func TestPickStratifiedNoLabeledFallsBackToRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pk := &Picker{Strategy: StrategyWarper}
	cands := []*pool.Entry{genEntry(0.5, 1), genEntry(0.5, 2)}
	picked := pk.PickStratified(constEstimator{v: 1}, nil, cands, 5, rng)
	if len(picked) == 0 {
		t.Error("fallback pick returned nothing")
	}
}

func TestPickEntropyStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pk := &Picker{Strategy: StrategyEntropy}
	certain := genEntry(0.999)
	uncertain := genEntry(0.5)
	counts := map[*pool.Entry]int{}
	for i := 0; i < 300; i++ {
		for _, e := range pk.PickGenerated([]*pool.Entry{certain, uncertain}, 1, rng) {
			counts[e]++
		}
	}
	if counts[uncertain] <= counts[certain] {
		t.Errorf("entropy picker favored certain entry: %v", counts)
	}
}

// countingEstimator counts Estimate calls.
type countingEstimator struct {
	constEstimator
	calls *int
}

func (c countingEstimator) Estimate(p query.Predicate) float64 {
	*c.calls++
	return c.constEstimator.Estimate(p)
}

// TestPickStratifiedEntropyIsTheEntropyPick pins the entropy ablation of the
// c1/c3 picker: with a labeled reference it is PickGenerated's entropy pick,
// draw for draw, and costs no model estimate; without one it stays uniform.
func TestPickStratifiedEntropyIsTheEntropyPick(t *testing.T) {
	pk := &Picker{Strategy: StrategyEntropy}
	cands := []*pool.Entry{genEntry(0.999, 1), genEntry(0.5, 2), genEntry(0.2, 3), genEntry(0, 4)}
	labeled := []*pool.Entry{genEntry(0.5, 5), genEntry(0.5, 6)}
	labeled[0].GT, labeled[1].GT = 10, 100
	var calls int
	m := countingEstimator{constEstimator{v: 1}, &calls}

	got := pk.PickStratified(m, labeled, cands, 6, rand.New(rand.NewSource(9)))
	want := pk.PickGenerated(cands, 6, rand.New(rand.NewSource(9)))
	if !slices.Equal(got, want) {
		t.Errorf("entropy PickStratified = %v, entropy PickGenerated = %v", got, want)
	}
	if calls != 0 {
		t.Errorf("entropy pick ran %d model estimates", calls)
	}

	got = pk.PickStratified(m, nil, cands, 6, rand.New(rand.NewSource(9)))
	want = dedup(sampleEntries(cands, 6, rand.New(rand.NewSource(9))))
	if !slices.Equal(got, want) {
		t.Errorf("entropy PickStratified without a reference = %v, uniform = %v", got, want)
	}
}
