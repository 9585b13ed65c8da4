// Package drift implements the drift metrics of §3.1 and §4.1: the intrinsic
// workload-distance δ_js (PCA reduction → per-dimension quantization →
// histogram → symmetric Jensen-Shannon divergence) and the canary
// predicates whose cardinality is re-checked against the live table. The
// thresholds that turn these into drift verdicts live with the detector
// (warper).
package drift

import (
	"context"
	"math"

	"warper/internal/annotator"
	"warper/internal/mathx"
	"warper/internal/query"
)

// The paper's δ_js parameters (§3.1): PCA dimensions k and bins per
// dimension m.
const (
	jsDims = 10
	jsBins = 3
)

// DeltaJS measures the workload distance between predicate sets A and B in
// [0,1]: featurize each predicate, fit a PCA on the union, reduce to k dims,
// quantize each dimension into m bins, histogram the resulting bucket ids and
// return the symmetric Jensen-Shannon divergence of the two histograms.
func DeltaJS(a, b []query.Predicate, sch *query.Schema) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	d := sch.FeatureDim()
	k := jsDims
	if k > d {
		k = d
	}
	// Cap k so the histogram stays denser than ~4 samples per occupied
	// bucket region; with few queries, a 3^10-bucket histogram would report
	// large divergence even for identical distributions (pure sparseness
	// bias). The paper's k=10 assumes thousands of queries per workload.
	n := len(a) + len(b)
	for k > 1 && pow(jsBins, k) > max(16, n/4) {
		k--
	}
	union := mathx.NewMatrix(len(a)+len(b), d)
	for i, p := range a {
		copy(union.Data[i*d:(i+1)*d], p.Featurize(sch))
	}
	for i, p := range b {
		copy(union.Data[(len(a)+i)*d:(len(a)+i+1)*d], p.Featurize(sch))
	}
	pca := mathx.FitPCA(union, k)
	proj := pca.ProjectAll(union)

	// Per-dimension quantization ranges from the union.
	mins := make([]float64, k)
	maxs := make([]float64, k)
	for j := 0; j < k; j++ {
		mins[j], maxs[j] = math.Inf(1), math.Inf(-1)
	}
	for i := 0; i < proj.Rows; i++ {
		row := proj.Row(i)
		for j := 0; j < k; j++ {
			if row[j] < mins[j] {
				mins[j] = row[j]
			}
			if row[j] > maxs[j] {
				maxs[j] = row[j]
			}
		}
	}
	buckets := 1
	for j := 0; j < k; j++ {
		buckets *= jsBins
	}
	ha := mathx.NewHistogram(buckets)
	hb := mathx.NewHistogram(buckets)
	for i := 0; i < proj.Rows; i++ {
		id := bucketID(proj.Row(i), mins, maxs, jsBins)
		if i < len(a) {
			ha.AddBucket(id)
		} else {
			hb.AddBucket(id)
		}
	}
	return mathx.JSDivergence(ha.Normalized(), hb.Normalized())
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
		if out > 1<<30 {
			return 1 << 30
		}
	}
	return out
}

// bucketID maps a k-dim point to a base-m composite bucket index.
func bucketID(row mathx.Vector, mins, maxs []float64, m int) int {
	id := 0
	for j := range row {
		span := maxs[j] - mins[j]
		bin := 0
		if span > 0 {
			bin = int((row[j] - mins[j]) / span * float64(m))
			if bin >= m {
				bin = m - 1
			}
			if bin < 0 {
				bin = 0
			}
		}
		id = id*m + bin
	}
	return id
}

// Canaries are probe predicates with remembered cardinalities: if their
// counts change on the live table, the data has drifted (§3.1 "measuring the
// change in ground truth cardinality for a few canary predicates").
type Canaries struct {
	preds []query.Predicate
	cards []float64
}

// NewCanaries records the current cardinalities of the given probe
// predicates, which the Canaries keep. Annotation failures (predicates
// outside the table's schema) surface as an error.
func NewCanaries(ctx context.Context, preds []query.Predicate, src annotator.Source) (*Canaries, error) {
	c := &Canaries{preds: preds, cards: make([]float64, len(preds))}
	if err := c.Rebase(ctx, src); err != nil {
		return nil, err
	}
	return c, nil
}

// MaxRelChange re-evaluates every canary and returns the largest relative
// cardinality change.
func (c *Canaries) MaxRelChange(ctx context.Context, src annotator.Source) (float64, error) {
	var worst float64
	for i, p := range c.preds {
		now, err := src.Count(ctx, p)
		if err != nil {
			return 0, err
		}
		base := math.Max(c.cards[i], 1)
		rel := math.Abs(now-c.cards[i]) / base
		if rel > worst {
			worst = rel
		}
	}
	return worst, nil
}

// Rebase re-records current cardinalities (after the model has adapted to a
// data drift).
func (c *Canaries) Rebase(ctx context.Context, src annotator.Source) error {
	for i, p := range c.preds {
		card, err := src.Count(ctx, p)
		if err != nil {
			return err
		}
		c.cards[i] = card
	}
	return nil
}
