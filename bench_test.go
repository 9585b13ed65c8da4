// Package warperbench benchmarks regenerate every paper table/figure at the
// quick scale (one rep per configuration) so `go test -bench=.` exercises
// the full experiment surface, plus micro-benchmarks for the hot paths.
package warperbench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/experiments"
	"warper/internal/nn"
	"warper/internal/query"
	"warper/internal/resilience"
	"warper/internal/warper"
	"warper/internal/workload"
)

// benchScale returns the per-iteration experiment scale for benchmarks.
func benchScale() experiments.Scale { return experiments.QuickScale() }

func runExperiment(b *testing.B, id string) {
	b.Helper()
	run, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := run(sc, int64(i)+1)
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig1Motivation(b *testing.B)       { runExperiment(b, "fig1") }
func BenchmarkFig5WorkloadViz(b *testing.B)      { runExperiment(b, "fig5") }
func BenchmarkFig6AdaptationCurves(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7AdaptationViz(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig8WorkloadCurves(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9EndToEnd(b *testing.B)         { runExperiment(b, "fig9") }
func BenchmarkFig10Hyper(b *testing.B)           { runExperiment(b, "fig10") }
func BenchmarkFig11GenBudget(b *testing.B)       { runExperiment(b, "fig11") }
func BenchmarkTable6Costs(b *testing.B)          { runExperiment(b, "table6") }
func BenchmarkTable7aSpeedups(b *testing.B)      { runExperiment(b, "table7a") }
func BenchmarkTable7bModels(b *testing.B)        { runExperiment(b, "table7b") }
func BenchmarkTable7cDrifts(b *testing.B)        { runExperiment(b, "table7c") }
func BenchmarkTable7dJoinCE(b *testing.B)        { runExperiment(b, "table7d") }
func BenchmarkTable8WorkloadPairs(b *testing.B)  { runExperiment(b, "table8") }
func BenchmarkTable9PlanGaps(b *testing.B)       { runExperiment(b, "table9") }
func BenchmarkTable10Ablations(b *testing.B)     { runExperiment(b, "table10") }
func BenchmarkTable11GenCPU(b *testing.B)        { runExperiment(b, "table11") }

// --- micro-benchmarks --------------------------------------------------------

func BenchmarkAnnotatorCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl := dataset.PRSA(6000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	g := workload.New("w3", tbl, sch, workload.Options{})
	preds := workload.Generate(g, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ann.Count(context.Background(), preds[i%len(preds)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnnotatorBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tbl := dataset.PRSA(6000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	g := workload.New("w3", tbl, sch, workload.Options{})
	preds := workload.Generate(g, 100, rng)
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
			rng := rand.New(rand.NewSource(1))
			tbl := dataset.PRSA(6000, rng)
			sch := query.SchemaOf(tbl)
			ann := annotator.New(tbl)
			g := workload.New("w3", tbl, sch, workload.Options{})
			preds := workload.Generate(g, 64, rng)
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

// BenchmarkAnnotateResilienceOverhead measures what the retry/breaker
// wrapper costs on the fault-free fast path: the same annotation batch
// through the raw annotator and through resilience.Wrap. The delta is the
// per-call price of the breaker check, the attempt context, and the cost
// ledger charge — it should stay far below one table scan.
func BenchmarkAnnotateResilienceOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tbl := dataset.PRSA(6000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	g := workload.New("w3", tbl, sch, workload.Options{})
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
	b.Run("resilient", bench(resilience.Wrap(ann, resilience.Policy{Seed: 4}, resilience.Events{})))
}

func BenchmarkLMEstimate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tbl := dataset.PRSA(3000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	g := workload.New("w1", tbl, sch, workload.Options{})
	train := benchAnnotateAll(b, ann, workload.Generate(g, 300, rng))
	lm := ce.NewLM(ce.LMMLP, sch, 1)
	if err := lm.Train(train); err != nil {
		b.Fatal(err)
	}
	preds := workload.Generate(g, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.Estimate(preds[i%len(preds)])
	}
}

func BenchmarkLMFineTune(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tbl := dataset.PRSA(3000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	g := workload.New("w1", tbl, sch, workload.Options{})
	train := benchAnnotateAll(b, ann, workload.Generate(g, 300, rng))
	lm := ce.NewLM(ce.LMMLP, sch, 1)
	if err := lm.Train(train); err != nil {
		b.Fatal(err)
	}
	batch := benchAnnotateAll(b, ann, workload.Generate(g, 32, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lm.Update(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNNForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	net := nn.MLP(18, 128, 3, 16, rng)
	x := make([]float64, 18)
	for i := range x {
		x[i] = rng.Float64()
	}
	grad := make([]float64, 16)
	grad[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
		net.Backward(grad)
	}
}

func BenchmarkWarperPeriod(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	tbl := dataset.PRSA(2000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	opts := workload.Options{MaxConstrained: 2}
	gT := workload.New("w1", tbl, sch, opts)
	gN := workload.New("w4", tbl, sch, opts)
	train := benchAnnotateAll(b, ann, workload.Generate(gT, 250, rng))
	lm := ce.NewLM(ce.LMMLP, sch, 1)
	if err := lm.Train(train); err != nil {
		b.Fatal(err)
	}
	cfg := warper.DefaultConfig()
	cfg.Hidden = 64
	cfg.Depth = 2
	cfg.NIters = 30
	cfg.Gamma = 200
	cfg.PickSize = 100
	ad, err := warper.New(cfg, lm, sch, ann, train)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals := make([]warper.Arrival, 10)
		for j := range arrivals {
			p := gN.Gen(rng)
			gt, err := ann.Count(context.Background(), p)
			if err != nil {
				b.Fatal(err)
			}
			arrivals[j] = warper.Arrival{Pred: p, GT: gt, HasGT: true}
		}
		if _, err := ad.Period(arrivals); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAnnotateAll labels a workload for benchmark setup, failing the
// benchmark on the (setup-only) error path.
func benchAnnotateAll(b *testing.B, ann *annotator.Annotator, ps []query.Predicate) []query.Labeled {
	b.Helper()
	out, err := ann.AnnotateAll(context.Background(), ps)
	if err != nil {
		b.Fatal(err)
	}
	return out
}
