package annotator

import (
	"context"
	"fmt"
	"math/rand"

	"warper/internal/dataset"
	"warper/internal/query"
)

// Sampled is an approximate annotator that counts over a fixed row sample
// and scales up — the sampling-based labeling alternative §2 discusses
// ("some prior works suggest using samples; ... sampling-induced errors can
// affect model quality"). It trades annotation cost for label noise; the
// BenchmarkSampledAnnotator ablation quantifies the trade. On the serving
// path it doubles as the degradation fallback: when the exact source is
// down, noisy labels beat no labels (see warper.Adapter).
type Sampled struct {
	tbl   *dataset.Table
	rows  []int   // sampled row indices
	scale float64 // NumRows / len(rows)
}

// NewSampled draws a uniform row sample of the given rate (0 < rate <= 1).
func NewSampled(t *dataset.Table, rate float64, rng *rand.Rand) (*Sampled, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("annotator: sample rate %v outside (0, 1]", rate)
	}
	n := t.NumRows()
	k := int(float64(n) * rate)
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(n)
	rows := append([]int(nil), perm[:k]...)
	return &Sampled{tbl: t, rows: rows, scale: float64(n) / float64(k)}, nil
}

// SampleSize returns the number of sampled rows.
func (s *Sampled) SampleSize() int { return len(s.rows) }

// Count returns the scaled-up approximate cardinality.
func (s *Sampled) Count(ctx context.Context, p query.Predicate) (float64, error) {
	if p.Dim() != s.tbl.NumCols() {
		return 0, fmt.Errorf("annotator: predicate dim %d vs table cols %d", p.Dim(), s.tbl.NumCols())
	}
	row := make([]float64, s.tbl.NumCols())
	hits := 0
	for i, r := range s.rows {
		if i%ctxCheckRows == 0 && ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if p.Matches(s.tbl.Row(r, row)) {
			hits++
		}
	}
	return float64(hits) * s.scale, nil
}
