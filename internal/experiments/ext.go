package experiments

import (
	"context"
	"math/rand"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

// ExtHistogram is an extension experiment beyond the paper's tables: it
// makes §2's contrast between workload-driven and data-driven estimators
// measurable. A classical equi-depth histogram (data-driven) is immune to
// workload drifts but blind to data drifts until rebuilt; the LM model
// (workload-driven) is the reverse. Warper exists precisely because the
// workload-driven family has an adaptation path worth accelerating.
func ExtHistogram(sc Scale, seed int64) []*Table {
	t := &Table{
		ID:     "Ext: histogram-vs-LM",
		Title:  "Workload-driven (LM-mlp) vs data-driven (equi-depth histogram) under drifts (PRSA)",
		Header: []string{"Condition", "LM-mlp GMQ", "Histogram GMQ"},
	}
	rng := rand.New(rand.NewSource(seed))
	tbl := datasetByName("prsa", sc.Rows, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	gTrain := workload.Parse("w12", tbl, sch, wkldOpts)
	gNew := workload.Parse("w345", tbl, sch, wkldOpts)

	train := must(ann.AnnotateAll(context.Background(), workload.Generate(gTrain, sc.TrainSize, rng)))
	lm := ce.NewLM(ce.LMMLP, sch, seed+1)
	check(lm.Train(train))
	hist := ce.NewHistogramEstimator(tbl, 64)

	evalOn := func(g workload.Generator) (float64, float64) {
		test := must(ann.AnnotateAll(context.Background(), workload.Generate(g, sc.TestSize, rng)))
		return ce.EvalGMQ(lm, test), ce.EvalGMQ(hist, test)
	}

	lmIn, hIn := evalOn(gTrain)
	t.Rows = append(t.Rows, []string{"in-distribution (w12)", f2(lmIn), f2(hIn)})

	lmWk, hWk := evalOn(gNew)
	t.Rows = append(t.Rows, []string{"workload drift (w345)", f2(lmWk), f2(hWk)})

	// Data drift: both estimators go stale; the histogram can rebuild from
	// the data alone, the LM needs re-labeled queries.
	dataset.SortTruncateHalf(tbl, 0)
	lmDd, hDd := evalOn(gTrain)
	t.Rows = append(t.Rows, []string{"data drift, no adaptation", f2(lmDd), f2(hDd)})

	check(hist.Update(nil)) // rebuild from the mutated table — free for histograms
	_, hReb := evalOn(gTrain)
	relabeled := must(ann.AnnotateAll(context.Background(), workload.Generate(gTrain, sc.StreamSize, rng)))
	check(lm.Update(relabeled)) // the LM needs fresh labels to recover
	lmReb, _ := evalOn(gTrain)
	t.Rows = append(t.Rows, []string{"data drift, after adaptation", f2(lmReb), f2(hReb)})

	return []*Table{t}
}
