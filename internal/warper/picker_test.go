package warper

import (
	"math"
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

// TestPickStratifiedSpansErrorRange runs the c1/c3 picker at its shipped
// shape — errorBuckets strata, pickerKNN-neighbor voting — over five error
// regimes a decade apart, each pickerKNN labeled references wide and apart
// in z-space. Regime 0 holds 100 unlabeled candidates, the others one each:
// a 10-query pick reaches every regime only if each candidate joins its own
// regime's stratum and the pick spans the strata.
func TestPickStratifiedSpansErrorRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pk := &Picker{Strategy: StrategyWarper}
	m := constEstimator{v: 100}
	const regimes = 5
	var labeled, cands []*pool.Entry
	for r := 0; r < regimes; r++ {
		// Regime r's labels sit near 100·10^r, so its q-errors near 10^r;
		// its embeddings near z = 5r.
		gt, z := 100*math.Pow(10, float64(r)), 5*float64(r)
		for j := 0; j < pickerKNN; j++ {
			labeled = append(labeled, &pool.Entry{
				Pred:   query.Predicate{Lows: []float64{z}, Highs: []float64{z + 1}},
				GT:     gt * (1 + 0.01*float64(j)),
				Source: pool.SrcTrain,
				Z:      []float64{z + 0.1*float64(j)},
			})
		}
		n := 1
		if r == 0 {
			n = 100
		}
		for i := 0; i < n; i++ {
			cands = append(cands, &pool.Entry{
				Pred:   query.Predicate{Lows: []float64{z}, Highs: []float64{z + 1}},
				GT:     pool.NoGT,
				Source: pool.SrcNew,
				Z:      []float64{z + 0.05 + float64(i)*0.001},
			})
		}
	}
	picked := pk.PickStratified(m, labeled, cands, 10, rng)
	if len(picked) == 0 {
		t.Fatal("nothing picked")
	}
	regions := map[int]bool{}
	for _, e := range picked {
		regions[int(e.Z[0]/5)] = true
	}
	if len(regions) != regimes {
		t.Errorf("stratified pick covered %d/%d error regimes", len(regions), regimes)
	}
}

// TestKNNBucketVotesByMajority pins the vote: the candidate's single
// nearest reference sits in bucket 4, but two of its pickerKNN nearest sit
// in bucket 1, so it joins bucket 1.
func TestKNNBucketVotesByMajority(t *testing.T) {
	ref := []refEntry{
		{e: &pool.Entry{Z: []float64{0}}},
		{e: &pool.Entry{Z: []float64{0.2}}},
		{e: &pool.Entry{Z: []float64{0.3}}},
		{e: &pool.Entry{Z: []float64{9}}},
	}
	refBuckets := []int{4, 1, 1, 0}
	if b := knnBucket(&pool.Entry{Z: []float64{0.05}}, ref, refBuckets); b != 1 {
		t.Errorf("bucket = %d, want 1 (the majority of the %d nearest)", b, pickerKNN)
	}
}

func TestPickStratifiedLabeledCandidatesBucketDirectly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pk := &Picker{Strategy: StrategyWarper}
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
