package experiments

import (
	"context"
	"math/rand"

	"warper/internal/adapt"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/metrics"
	"warper/internal/query"
	"warper/internal/warper"
	"warper/internal/workload"
)

// Table7c regenerates Table 7c: data drift (c1) and label-starved workload
// drift (c3), LM-mlp, Warper's picker vs random annotation at an identical
// budget.
func Table7c(sc Scale, seed int64) []*Table {
	t := &Table{
		ID:     "Table 7c",
		Title:  "Different drifts (c1 data drift, c3 slow labeling), LM-mlp",
		Header: deltaHeader,
	}
	for _, ds := range datasets {
		t.Rows = append(t.Rows, deltaRow(runC1(ds, sc, seed), ds, "c1", "w1-5", "LM-mlp"))
	}
	for _, ds := range datasets {
		t.Rows = append(t.Rows, deltaRow(runC3(ds, sc, seed), ds, "c3", "w12/345", "LM-mlp"))
	}
	return []*Table{t}
}

// runC1 reproduces the c1 construction of §4.1.2: the table is sorted by one
// column and truncated in half; every stored label goes stale; the workload
// is unchanged. Warper's error-stratified picker chooses which training
// queries to re-annotate; the FT baseline re-annotates uniformly at random
// with the same per-period budget.
func runC1(ds string, sc Scale, seed int64) *Comparison {
	return compare(sc, seed, 104729, ftWarper, func(runSeed int64) (t trial) {
		rng := rand.New(rand.NewSource(runSeed))
		env := NewEnv(ds, "w12345", "w12345", "lm-mlp", sc, runSeed)

		// Data drift: sort by column 0 and truncate in half.
		dataset.SortTruncateHalf(env.Tbl, 0)
		// The test set carries post-drift ground truth for the unchanged
		// workload.
		test := must(env.Ann.AnnotateAll(context.Background(), workload.Generate(env.TrainGen, sc.TestSize, rng)))

		// Oracle for δ_m: trained exclusively on post-drift labels.
		oracle := NewModel("lm-mlp", env.Sch, runSeed+3)
		check(oracle.Train(must(env.Ann.AnnotateAll(context.Background(), workload.Generate(env.TrainGen, sc.StreamSize, rng)))))
		t.deltaM = metrics.DeltaM(ce.EvalGMQ(env.Model, test), ce.EvalGMQ(oracle, test))
		// δ_js is 0 by construction: the workload did not change.

		budget := sc.PeriodSize
		periods := sc.StreamSize / sc.PeriodSize

		// FT baseline: re-annotate `budget` random training queries per
		// period and fine-tune on them.
		ftModel := env.Model.Clone()
		ftCurve := &metrics.Curve{}
		ftCurve.Append(0, ce.EvalGMQ(ftModel, test))
		perm := rng.Perm(len(env.Train))
		used := 0
		for p := 0; p < periods; p++ {
			var batch []query.Labeled
			for i := 0; i < budget && used < len(perm); i++ {
				lq := env.Train[perm[used]]
				used++
				batch = append(batch, query.Labeled{Pred: lq.Pred, Card: must(env.Ann.Count(context.Background(), lq.Pred))})
			}
			if len(batch) == 0 {
				break
			}
			check(ftModel.Update(batch))
			ftCurve.Append(float64(used), ce.EvalGMQ(ftModel, test))
		}

		// Warper: the adapter detects c1 via telemetry and uses the
		// error-stratified picker under the same per-period budget.
		ad := env.NewWarperAdapter(sc, runSeed+11)
		ad.Cfg.AnnotateBudget = budget
		wCurve := &metrics.Curve{}
		wCurve.Append(0, ce.EvalGMQ(ad.M, test))
		spent := 0
		for p := 0; p < periods; p++ {
			arrivals := make([]warper.Arrival, budget/2)
			for i := range arrivals {
				pr := env.TrainGen.Gen(rng)
				arrivals[i] = warper.Arrival{Pred: pr, GT: must(env.Ann.Count(context.Background(), pr)), HasGT: true}
			}
			rep := must(ad.Period(arrivals))
			spent += rep.Annotated
			wCurve.Append(float64(spent), ce.EvalGMQ(ad.M, test))
		}
		t.curves = []*metrics.Curve{ftCurve, wCurve}
		return t
	})
}

// runC3 reproduces the c3 scenario: the workload drifts but arrivals carry
// no labels; both methods annotate with the same per-period budget — FT
// picks uniformly at random, Warper uses the stratified picker.
func runC3(ds string, sc Scale, seed int64) *Comparison {
	return compare(sc, seed, 104729, ftWarper, func(runSeed int64) (t trial) {
		rng := rand.New(rand.NewSource(runSeed))
		env := NewEnv(ds, "w12", "w345", "lm-mlp", sc, runSeed)
		t.deltaM, t.deltaJS = env.DeltaM, env.DeltaJS

		budget := sc.PeriodSize / 2
		periods := adapt.SplitPeriods(adapt.ArrivalsOf(env.Stream, false), sc.PeriodSize)

		// FT baseline: annotate `budget` random arrivals per period.
		ftModel := env.Model.Clone()
		ftCurve := &metrics.Curve{}
		ftCurve.Append(0, ce.EvalGMQ(ftModel, env.Test))
		spent := 0
		for _, period := range periods {
			var batch []query.Labeled
			idx := rng.Perm(len(period))
			for i := 0; i < budget && i < len(idx); i++ {
				pr := period[idx[i]].Pred
				batch = append(batch, query.Labeled{Pred: pr, Card: must(env.Ann.Count(context.Background(), pr))})
				spent++
			}
			check(ftModel.Update(batch))
			ftCurve.Append(float64(spent), ce.EvalGMQ(ftModel, env.Test))
		}

		// Warper with the same budget.
		ad := env.NewWarperAdapter(sc, runSeed+11)
		ad.Cfg.AnnotateBudget = budget
		ad.Cfg.GenFraction = 0.001 // c3: picker only, no generation
		wCurve := &metrics.Curve{}
		wCurve.Append(0, ce.EvalGMQ(ad.M, env.Test))
		wSpent := 0
		for _, period := range periods {
			rep := must(ad.Period(period))
			wSpent += rep.Annotated
			wCurve.Append(float64(wSpent), ce.EvalGMQ(ad.M, env.Test))
		}
		t.curves = []*metrics.Curve{ftCurve, wCurve}
		return t
	})
}
