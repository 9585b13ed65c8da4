package annotator

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

func TestSampledApproximatesExactCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := dataset.PRSA(8000, rng)
	sch := query.SchemaOf(tbl)
	exact := New(tbl)
	approx := newSampledOK(t, tbl, 0.2, rng)
	g := workload.New("w3", tbl, sch, workload.Options{MaxConstrained: 1})

	var relErrSum float64
	n := 0
	for i := 0; i < 40; i++ {
		p := g.Gen(rng)
		truth := countOK(t, exact, p)
		if truth < 100 {
			continue // relative error meaningless on tiny counts
		}
		est, err := approx.Count(context.Background(), p)
		if err != nil {
			t.Fatalf("Count: %v", err)
		}
		relErrSum += math.Abs(est-truth) / truth
		n++
	}
	if n == 0 {
		t.Skip("no large-count probes drawn")
	}
	if mean := relErrSum / float64(n); mean > 0.25 {
		t.Errorf("mean relative error = %v at 20%% sample, want < 0.25", mean)
	}
}

func TestSampledScalesFullSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := dataset.PRSA(500, rng)
	sch := query.SchemaOf(tbl)
	exact := New(tbl)
	approx := newSampledOK(t, tbl, 1.0, rng)
	if approx.SampleSize() != 500 {
		t.Fatalf("SampleSize = %d", approx.SampleSize())
	}
	p := query.NewFullRange(sch)
	p.SetRange(1, 0, 80)
	got, err := approx.Count(context.Background(), p)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if want := countOK(t, exact, p); got != want {
		t.Errorf("full-rate sample must be exact: %v vs %v", got, want)
	}
}

func TestSampledIsCheaperPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := dataset.PRSA(8000, rng)
	sch := query.SchemaOf(tbl)
	approx := newSampledOK(t, tbl, 0.05, rng)
	if approx.SampleSize() != 400 {
		t.Errorf("SampleSize = %d, want 400", approx.SampleSize())
	}
	full := query.NewFullRange(sch)
	got, err := approx.Count(context.Background(), full)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if got != 8000 {
		t.Errorf("scaled full count = %v, want 8000", got)
	}
}

func TestSampledBadRateError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := dataset.PRSA(100, rng)
	for _, rate := range []float64{0, -0.1, 1.5} {
		if _, err := NewSampled(tbl, rate, rng); err == nil {
			t.Errorf("rate %v should be rejected", rate)
		}
	}
}

// newSampledOK unwraps NewSampled for valid rates.
func newSampledOK(t *testing.T, tbl *dataset.Table, rate float64, rng *rand.Rand) *Sampled {
	t.Helper()
	s, err := NewSampled(tbl, rate, rng)
	if err != nil {
		t.Fatalf("NewSampled: %v", err)
	}
	return s
}
