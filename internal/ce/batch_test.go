package ce

import (
	"testing"

	"warper/internal/query"
)

var (
	_ BatchEstimator = (*LM)(nil)
	_ BatchEstimator = (*MSCN)(nil)
)

// TestLMBatchedEstimateMatchesPerQuery: EstimateAll must be bit-equal to
// calling Estimate per predicate (the batched forward is byte-identical to
// the per-sample forward by construction).
func TestLMBatchedEstimateMatchesPerQuery(t *testing.T) {
	_, sch, train, test := fixture(t, 200, 64)
	lm := NewLM(LMMLP, sch, 41)
	trainOK(t, lm, train)

	ps := make([]query.Predicate, len(test))
	for i, lq := range test {
		ps[i] = lq.Pred
	}
	out := make([]float64, len(ps))
	lm.EstimateAll(ps, out)
	for i, p := range ps {
		if want := lm.Estimate(p); out[i] != want {
			t.Fatalf("query %d: batched %v != per-query %v", i, out[i], want)
		}
	}
}

// TestLMBatchedEstimateNonMLPBackends: the per-row fallback must agree with
// Estimate for the tree and kernel backends too.
func TestLMBatchedEstimateNonMLPBackends(t *testing.T) {
	_, sch, train, test := fixture(t, 150, 32)
	for _, v := range []LMVariant{LMGBT, LMRBF} {
		lm := NewLM(v, sch, 42)
		trainOK(t, lm, train)
		ps := make([]query.Predicate, len(test))
		for i, lq := range test {
			ps[i] = lq.Pred
		}
		out := make([]float64, len(ps))
		lm.EstimateAll(ps, out)
		for i, p := range ps {
			if want := lm.Estimate(p); out[i] != want {
				t.Fatalf("%s query %d: batched %v != per-query %v", v, i, out[i], want)
			}
		}
	}
}

// TestMSCNBatchedEstimateMatchesPerQuery: the three-pass batched forward
// (table branch, join branch, output MLP) must reproduce per-query
// EstimateJoin bit-for-bit, set pooling included.
func TestMSCNBatchedEstimateMatchesPerQuery(t *testing.T) {
	_, sch, train, test := fixture(t, 200, 48)
	m := NewMSCN(NewCatalog(sch), 43)
	if err := m.Train(train); err != nil {
		t.Fatal(err)
	}

	ps := make([]query.Predicate, len(test))
	for i, lq := range test {
		ps[i] = lq.Pred
	}
	out := make([]float64, len(ps))
	m.EstimateAll(ps, out)
	for i, p := range ps {
		if want := m.Estimate(p); out[i] != want {
			t.Fatalf("query %d: batched %v != per-query %v", i, out[i], want)
		}
	}
}

// TestMSCNEstimateJoinAllErrors: length mismatches and out-of-catalog
// queries are reported as errors, not panics.
func TestMSCNEstimateJoinAllErrors(t *testing.T) {
	_, sch, _, _ := fixture(t, 1, 1)
	m := NewMSCN(NewCatalog(sch), 44)
	if err := m.EstimateJoinAll(make([]*query.JoinQuery, 2), make([]float64, 3)); err == nil {
		t.Error("length mismatch must error")
	}
	bad := query.NewJoinQuery("no-such-table")
	if err := m.EstimateJoinAll([]*query.JoinQuery{bad}, make([]float64, 1)); err == nil {
		t.Error("unknown table must error")
	}
	if err := m.EstimateJoinAll(nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}
