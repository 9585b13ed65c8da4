package ce

import (
	"testing"

	"warper/internal/query"
)

// Re-train-backed LM variants share the immutable fitted model across
// clones; a re-fit must replace the original's pointer without touching
// clones.
func TestRetrainBackendCloneIsolation(t *testing.T) {
	_, sch, train, test := fixture(t, 300, 60)
	for _, v := range []LMVariant{LMGBT, LMPly, LMRBF} {
		lm := NewLM(v, sch, 51)
		lm.Train(train)
		clone := lm.Clone()
		before := EvalGMQ(clone, test)
		// Re-train the original on a skewed subset; the clone must not move.
		lm.Update(train[:50])
		after := EvalGMQ(clone, test)
		if before != after {
			t.Errorf("%s: clone changed after original re-trained: %v -> %v", v, before, after)
		}
		// And the original must have actually changed.
		if got := EvalGMQ(lm, test); got == before {
			t.Logf("%s: original unchanged after Update (possible but unusual)", v)
		}
	}
}

func TestMSCNCloneIsolation(t *testing.T) {
	_, sch, train, test := fixture(t, 300, 60)
	m := NewMSCN(NewCatalog(sch), 52)
	m.Train(train)
	clone := m.Clone()
	before := EvalGMQ(clone, test)
	m.Update(train[:50])
	if after := EvalGMQ(clone, test); after != before {
		t.Error("MSCN clone shares weights with original")
	}
}

// TestCloneEstimateIdentical pins Clone's estimate-identity contract for
// every LM variant — what a serving replica refreshed from a swapped-in
// model relies on: the clone answers bit-identically to the source, on the
// single-row and the batched path alike.
func TestCloneEstimateIdentical(t *testing.T) {
	_, sch, train, test := fixture(t, 250, 40)
	preds := make([]query.Predicate, len(test))
	for i, l := range test {
		preds[i] = l.Pred
	}
	for _, v := range []LMVariant{LMMLP, LMGBT, LMPly, LMRBF} {
		src := NewLM(v, sch, 11)
		trainOK(t, src, train)
		dst := src.Clone().(*LM)
		out := make([]float64, len(preds))
		dst.EstimateAll(preds, out)
		for i, p := range preds {
			want := src.Estimate(p)
			if got := dst.Estimate(p); got != want {
				t.Fatalf("%s: clone.Estimate = %v, src = %v", v, got, want)
			}
			if out[i] != want {
				t.Fatalf("%s: clone.EstimateAll[%d] = %v, src = %v", v, i, out[i], want)
			}
		}
	}
}
