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

// countSink keeps the benchmarked counts live.
var countSink float64

// benchCounts times Count cycling over preds.
func benchCounts(b *testing.B, ann *Annotator, preds []query.Predicate) {
	ctx := context.Background()
	if _, err := ann.Count(ctx, preds[0]); err != nil { // build the sorted order outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := ann.Count(ctx, preds[i%len(preds)])
		if err != nil {
			b.Fatal(err)
		}
		countSink += c
	}
}

// BenchmarkAnnotatorCountDrifted counts normalized predicates over the
// benchmark of record's 30 000-row PRSA table after 0, 2 and 4
// UpdateDrift(0.3, 1.0) passes. The predicates are normalized against the
// schema captured before any drift, as bench/ and warperd capture it once
// at start, so their unconstrained columns sit at the old [min, max] and
// reject the rows that drifted out of it.
func BenchmarkAnnotatorCountDrifted(b *testing.B) {
	for _, drifts := range []int{0, 2, 4} {
		for _, w := range []string{"w1", "w3", "w4", "w5"} {
			b.Run(fmt.Sprintf("drifts=%d/%s", drifts, w), func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				tbl := dataset.PRSA(30000, rng)
				sch := query.SchemaOf(tbl)
				preds := workload.Generate(workload.New(w, tbl, sch, workload.Options{}), 256, rng)
				for i := range preds {
					preds[i] = preds[i].Normalize(sch)
				}
				for range drifts {
					dataset.UpdateDrift(tbl, 0.3, 1.0, rng)
				}
				benchCounts(b, New(tbl), preds)
			})
		}
	}
}

// BenchmarkAnnotatorCountPaperRows counts w1/w3/w5 predicates over
// 500 000-row PRSA and Poker tables, the paper's row scale (§4.1).
func BenchmarkAnnotatorCountPaperRows(b *testing.B) {
	for _, ds := range []struct {
		name string
		gen  func(int, *rand.Rand) *dataset.Table
	}{{"prsa", dataset.PRSA}, {"poker", dataset.Poker}} {
		rng := rand.New(rand.NewSource(8))
		tbl := ds.gen(500000, rng)
		sch := query.SchemaOf(tbl)
		for _, w := range []string{"w1", "w3", "w5"} {
			b.Run(ds.name+"/"+w, func(b *testing.B) {
				preds := workload.Generate(workload.New(w, tbl, sch, workload.Options{}), 256, rand.New(rand.NewSource(9)))
				benchCounts(b, New(tbl), preds)
			})
		}
	}
}
