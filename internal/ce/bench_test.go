package ce

import (
	"testing"

	"warper/internal/query"
)

// benchLM trains an LM-mlp on the w1 fixture and returns it with a held-out
// labeled batch from the same workload.
func benchLM(b *testing.B, nHeldOut int) (*LM, []query.Labeled) {
	b.Helper()
	_, sch, train, heldOut := fixture(b, 300, nHeldOut)
	lm := NewLM(LMMLP, sch, 1)
	if err := lm.Train(train); err != nil {
		b.Fatal(err)
	}
	return lm, heldOut
}

// BenchmarkLMEstimate is one scalar estimate on a trained LM-mlp: the
// per-row cost behind every one-row serving group.
func BenchmarkLMEstimate(b *testing.B) {
	lm, qs := benchLM(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.Estimate(qs[i%len(qs)].Pred)
	}
}

// BenchmarkLMFineTune is one Update on a 32-query labeled batch: the model
// half of an adaptation period's update stage.
func BenchmarkLMFineTune(b *testing.B) {
	lm, batch := benchLM(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lm.Update(batch); err != nil {
			b.Fatal(err)
		}
	}
}
