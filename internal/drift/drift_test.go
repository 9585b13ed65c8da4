package drift

import (
	"context"
	"math/rand"
	"testing"

	"warper/internal/annotator"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

func driftsFixture(t *testing.T) (*dataset.Table, *query.Schema) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	tbl := dataset.PRSA(3000, rng)
	return tbl, query.SchemaOf(tbl)
}

func TestDeltaJSIdenticalWorkloadsNearZero(t *testing.T) {
	tbl, sch := driftsFixture(t)
	rng := rand.New(rand.NewSource(2))
	g := workload.New("w1", tbl, sch, workload.Options{})
	a := workload.Generate(g, 300, rng)
	b := workload.Generate(g, 300, rng)
	js := DeltaJS(a, b, sch)
	if js > 0.15 {
		t.Errorf("δ_js of same distribution = %v, want near 0", js)
	}
}

func TestDeltaJSDifferentWorkloadsLarger(t *testing.T) {
	tbl, sch := driftsFixture(t)
	rng := rand.New(rand.NewSource(3))
	g1 := workload.New("w1", tbl, sch, workload.Options{})
	g4 := workload.New("w4", tbl, sch, workload.Options{})
	a := workload.Generate(g1, 300, rng)
	b := workload.Generate(g1, 300, rng)
	c := workload.Generate(g4, 300, rng)
	same := DeltaJS(a, b, sch)
	diff := DeltaJS(a, c, sch)
	if diff <= same {
		t.Errorf("δ_js(w1,w4)=%v should exceed δ_js(w1,w1)=%v", diff, same)
	}
	if diff <= 0 || diff > 1 {
		t.Errorf("δ_js out of range: %v", diff)
	}
}

func TestDeltaJSSymmetric(t *testing.T) {
	tbl, sch := driftsFixture(t)
	rng := rand.New(rand.NewSource(4))
	a := workload.Generate(workload.New("w1", tbl, sch, workload.Options{}), 150, rng)
	b := workload.Generate(workload.New("w3", tbl, sch, workload.Options{}), 150, rng)
	ab := DeltaJS(a, b, sch)
	ba := DeltaJS(b, a, sch)
	if diff := ab - ba; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("not symmetric: %v vs %v", ab, ba)
	}
}

func TestDeltaJSEmptyInputs(t *testing.T) {
	_, sch := driftsFixture(t)
	if got := DeltaJS(nil, nil, sch); got != 0 {
		t.Errorf("empty δ_js = %v", got)
	}
}

func TestCanariesDetectDataDrift(t *testing.T) {
	tbl, sch := driftsFixture(t)
	rng := rand.New(rand.NewSource(5))
	ann := annotator.New(tbl)
	g := workload.New("w3", tbl, sch, workload.Options{})
	can, err := NewCanaries(context.Background(), workload.Generate(g, 10, rng), ann)
	if err != nil {
		t.Fatalf("NewCanaries: %v", err)
	}
	if len(can.preds) != 10 || len(can.cards) != 10 {
		t.Fatalf("%d predicates, %d baselines, want 10 each", len(can.preds), len(can.cards))
	}
	if got := maxRelOK(t, can, ann); got != 0 {
		t.Errorf("unchanged table rel change = %v, want 0", got)
	}
	dataset.SortTruncateHalf(tbl, 1)
	if got := maxRelOK(t, can, ann); got < 0.1 {
		t.Errorf("rel change after truncation = %v, want >= 0.1", got)
	}
	if err := can.Rebase(context.Background(), ann); err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	if got := maxRelOK(t, can, ann); got != 0 {
		t.Errorf("after rebase = %v, want 0", got)
	}
}

// maxRelOK unwraps canary probes over schemas that match by construction.
func maxRelOK(t *testing.T, c *Canaries, ann *annotator.Annotator) float64 {
	t.Helper()
	v, err := c.MaxRelChange(context.Background(), ann)
	if err != nil {
		t.Fatalf("MaxRelChange: %v", err)
	}
	return v
}
