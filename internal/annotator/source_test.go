package annotator

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

// TestCancelledContextStopsCount pins the Source contract: a cancelled
// context surfaces as ctx.Err() from every entry point instead of a full
// scan's worth of wasted work.
func TestCancelledContextStopsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := dataset.PRSA(9000, rng)
	sch := query.SchemaOf(tbl)
	g := workload.New("w1", tbl, sch, workload.Options{})
	preds := workload.Generate(g, 8, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	a := New(tbl)
	if _, err := a.Count(ctx, preds[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Count err = %v, want context.Canceled", err)
	}
	if _, err := a.AnnotateAll(ctx, preds); !errors.Is(err, context.Canceled) {
		t.Errorf("AnnotateAll err = %v, want context.Canceled", err)
	}
	s := newSampledOK(t, tbl, 0.5, rng)
	if _, err := s.Count(ctx, preds[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Sampled.Count err = %v, want context.Canceled", err)
	}
	// A cancelled annotation charges nothing to the cost meters.
	if a.Queries != 0 {
		t.Errorf("cancelled work was metered: Queries = %d", a.Queries)
	}
}

// TestAnnotateAllDimMismatch pins the batch-path error contract added with
// the Source interface: a malformed predicate fails the batch with an error
// rather than matching nothing silently.
func TestAnnotateAllDimMismatch(t *testing.T) {
	tbl := smallTable()
	bad := []query.Predicate{{Lows: []float64{0}, Highs: []float64{1}}}
	if _, err := New(tbl).AnnotateAll(context.Background(), bad); err == nil {
		t.Error("exact AnnotateAll accepted a dim-mismatched predicate")
	}
	rng := rand.New(rand.NewSource(1))
	s := newSampledOK(t, tbl, 1, rng)
	if _, err := s.AnnotateAll(context.Background(), bad); err == nil {
		t.Error("Sampled.AnnotateAll accepted a dim-mismatched predicate")
	}
}
