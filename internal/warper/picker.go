package warper

import (
	"math"
	"math/rand"
	"sort"

	"warper/internal/ce"
	"warper/internal/metrics"
	"warper/internal/pool"
)

// Picker selects the queries worth spending annotation and training budget
// on — the ℙ module of Figure 4. Strategy selects among the paper's picker
// and the Table 10 ablation alternatives.
type Picker struct {
	Strategy PickStrategy
	// Buckets is the stratification bucket count k for the error-stratified
	// mode; KNN the neighbor count for assigning unlabeled queries.
	Buckets int
	KNN     int
}

// PickStrategy selects a picker implementation.
type PickStrategy int

// Picker strategies: the paper's picker plus the Table 10 ablations.
const (
	// StrategyWarper is the paper's picker: confidence-weighted over
	// generated queries (c2) or error-stratified (c1/c3).
	StrategyWarper PickStrategy = iota
	// StrategyRandom picks uniformly at random (ablation "ℙ → rnd pick").
	StrategyRandom
	// StrategyEntropy picks by uncertainty sampling on discriminator
	// entropy (ablation "ℙ → entropy").
	StrategyEntropy
)

// String returns the strategy name.
func (s PickStrategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyEntropy:
		return "entropy"
	default:
		return "warper"
	}
}

// PickGenerated selects n entries from the generated candidates for
// annotation, weighted by the discriminator confidence s' that each
// resembles the new workload (sampling with replacement, then deduplicated —
// annotation of the same predicate twice is free).
func (pk *Picker) PickGenerated(cands []*pool.Entry, n int, rng *rand.Rand) []*pool.Entry {
	if len(cands) == 0 || n <= 0 {
		return nil
	}
	switch pk.Strategy {
	case StrategyRandom:
		return dedup(sampleEntries(cands, n, rng))
	case StrategyEntropy:
		return pk.pickByEntropy(cands, n, rng)
	}
	weights := make([]float64, len(cands))
	var total float64
	for i, e := range cands {
		w := e.Conf
		if w <= 0 {
			w = 1e-6
		}
		weights[i] = w
		total += w
	}
	picked := make([]*pool.Entry, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Float64() * total
		acc := 0.0
		for j, w := range weights {
			acc += w
			if r <= acc {
				picked = append(picked, cands[j])
				break
			}
		}
	}
	return dedup(picked)
}

// pickByEntropy implements the uncertainty-sampling ablation: queries whose
// discriminator distribution has higher entropy are more likely picked.
func (pk *Picker) pickByEntropy(cands []*pool.Entry, n int, rng *rand.Rand) []*pool.Entry {
	weights := make([]float64, len(cands))
	var total float64
	for i, e := range cands {
		// Entropy of the (s', 1-s') confidence split; entries never
		// classified get maximal weight.
		h := 1.0
		if e.Conf > 0 && e.Conf < 1 {
			h = -(e.Conf*math.Log(e.Conf) + (1-e.Conf)*math.Log(1-e.Conf)) / math.Ln2
		}
		weights[i] = h + 1e-6
		total += weights[i]
	}
	picked := make([]*pool.Entry, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Float64() * total
		acc := 0.0
		for j, w := range weights {
			acc += w
			if r <= acc {
				picked = append(picked, cands[j])
				break
			}
		}
	}
	return dedup(picked)
}

// PickStratified implements the c1/c3 picker (§3.2): cluster the labeled
// pool records into k buckets by the CE model's evaluation error, assign
// each unlabeled candidate to a bucket by k-nearest-neighbor over
// embeddings, then sample candidates across buckets with replacement so the
// picked set spans a wide range of CE errors.
//
// labeled supplies the bucket structure (its entries may carry stale labels
// — the error estimate is still informative); cands is the set to pick from.
// Candidates that carry their own (possibly stale) label are bucketed
// directly by their own error.
func (pk *Picker) PickStratified(m ce.Estimator, labeled, cands []*pool.Entry, n int, rng *rand.Rand) []*pool.Entry {
	if len(cands) == 0 || n <= 0 {
		return nil
	}
	if pk.Strategy == StrategyRandom {
		return dedup(sampleEntries(cands, n, rng))
	}
	k := pk.Buckets
	if k <= 0 {
		k = 5
	}
	// Bucket boundaries: error quantiles over the labeled records.
	var ref []refEntry
	for _, e := range labeled {
		if e.GT < 0 {
			continue
		}
		ref = append(ref, refEntry{e, metrics.QError(m.Estimate(e.Pred), e.GT)})
	}
	if len(ref) == 0 {
		return dedup(sampleEntries(cands, n, rng))
	}
	errs := make([]float64, len(ref))
	for i, s := range ref {
		errs[i] = s.err
	}
	sort.Float64s(errs)
	bounds := make([]float64, k-1)
	for i := 1; i < k; i++ {
		bounds[i-1] = quantileSorted(errs, float64(i)/float64(k))
	}
	bucketOf := func(err float64) int {
		b := sort.SearchFloat64s(bounds, err)
		if b >= k {
			b = k - 1
		}
		return b
	}
	// Pre-bucket the labeled reference entries for kNN voting.
	refBuckets := make([]int, len(ref))
	for i, s := range ref {
		refBuckets[i] = bucketOf(s.err)
	}

	if pk.Strategy == StrategyEntropy {
		return pk.pickByEntropy(cands, n, rng)
	}

	// Assign each candidate to a bucket.
	buckets := make([][]*pool.Entry, k)
	knn := pk.KNN
	if knn <= 0 {
		knn = 3
	}
	for _, e := range cands {
		var b int
		if e.GT >= 0 {
			b = bucketOf(metrics.QError(m.Estimate(e.Pred), e.GT))
		} else {
			b = knnBucket(e, ref, refBuckets, knn, k)
		}
		buckets[b] = append(buckets[b], e)
	}
	// Round-robin stratified sample with replacement.
	var nonEmpty []int
	for b := range buckets {
		if len(buckets[b]) > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	picked := make([]*pool.Entry, 0, n)
	for i := 0; i < n; i++ {
		b := nonEmpty[i%len(nonEmpty)]
		bk := buckets[b]
		picked = append(picked, bk[rng.Intn(len(bk))])
	}
	return dedup(picked)
}

// refEntry is a labeled reference record with its current CE q-error.
type refEntry struct {
	e   *pool.Entry
	err float64
}

// knnBucket votes the candidate into the majority bucket of its k nearest
// labeled reference entries by embedding distance.
func knnBucket(e *pool.Entry, ref []refEntry, refBuckets []int, knn, k int) int {
	type dist struct {
		d float64
		b int
	}
	ds := make([]dist, 0, len(ref))
	for i, r := range ref {
		ds = append(ds, dist{embedDist(e.Z, r.e.Z), refBuckets[i]})
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
	if knn > len(ds) {
		knn = len(ds)
	}
	votes := make([]int, k)
	for i := 0; i < knn; i++ {
		votes[ds[i].b]++
	}
	best := 0
	for b, v := range votes {
		if v > votes[best] {
			best = b
		}
	}
	return best
}

func embedDist(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.Inf(1)
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// dedup removes duplicate entries while preserving order.
func dedup(entries []*pool.Entry) []*pool.Entry {
	seen := make(map[*pool.Entry]bool, len(entries))
	out := entries[:0]
	for _, e := range entries {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}
