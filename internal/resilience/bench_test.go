package resilience

import (
	"context"
	"math/rand"
	"testing"

	"warper/internal/annotator"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

// BenchmarkAnnotateResilienceOverhead measures what the retry/breaker
// wrapper costs on the fault-free fast path: the same annotation batch
// through the raw annotator and through Wrap. The delta is the per-call
// price of the breaker check, the attempt context, and the cost ledger
// charge — it should stay far below one table scan.
func BenchmarkAnnotateResilienceOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tbl := dataset.PRSA(6000, rng)
	ann := annotator.New(tbl)
	g := workload.New("w3", tbl, query.SchemaOf(tbl), workload.Options{})
	preds := workload.Generate(g, 100, rng)

	bench := func(src annotator.Source) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := src.AnnotateAll(context.Background(), preds); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("raw", bench(ann))
	b.Run("resilient", bench(Wrap(ann, Policy{Seed: 4}, Events{})))
}
