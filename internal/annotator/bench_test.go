package annotator

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

// benchEnv is the shared benchmark fixture: a 6000-row PRSA table and n w3
// predicates over it.
func benchEnv(seed int64, n int) (*dataset.Table, *Annotator, []query.Predicate) {
	rng := rand.New(rand.NewSource(seed))
	tbl := dataset.PRSA(6000, rng)
	g := workload.New("w3", tbl, query.SchemaOf(tbl), workload.Options{})
	return tbl, New(tbl), workload.Generate(g, n, rng)
}

func BenchmarkAnnotatorCount(b *testing.B) {
	_, ann, preds := benchEnv(1, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ann.Count(context.Background(), preds[i%len(preds)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnnotatorBatch(b *testing.B) {
	_, ann, preds := benchEnv(2, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ann.AnnotateAll(context.Background(), preds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnotatorCountMutating invalidates the table's sorted-column index
// every N counts (Version++ is what every dataset mutator does, at no cost of
// its own), so ns/op shows how many counts it takes to amortise one rebuild:
// every=1 re-sorts all columns per count, every=4096 is close to
// BenchmarkAnnotatorCount.
func BenchmarkAnnotatorCountMutating(b *testing.B) {
	for _, every := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			tbl, ann, preds := benchEnv(1, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%every == 0 {
					tbl.Version++
				}
				if _, err := ann.Count(context.Background(), preds[i%len(preds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
