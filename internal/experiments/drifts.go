package experiments

import (
	"context"
	"math/rand"

	"warper/internal/adapt"
	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/metrics"
	"warper/internal/query"
	"warper/internal/warper"
)

// Table7c regenerates Table 7c: data drift (c1) and label-starved workload
// drift (c3), LM-mlp, Warper's picker against random annotation at an
// identical budget (runStarved).
func Table7c(sc Scale, seed int64) []*Table {
	t := &Table{
		ID:     "Table 7c",
		Title:  "Different drifts (c1 data drift, c3 slow labeling), LM-mlp",
		Header: deltaHeader,
	}
	for _, ds := range datasets {
		t.Rows = append(t.Rows, deltaRow(runStarved(ds, "w12345", "w12345", sc, seed), ds, "c1", "w1-5", "LM-mlp"))
	}
	for _, ds := range datasets {
		t.Rows = append(t.Rows, deltaRow(runStarved(ds, "w12", "w345", sc, seed), ds, "c3", "w12/345", "LM-mlp"))
	}
	return []*Table{t}
}

// runStarved is Table 7c's comparison: FT against Warper over arrivals that
// carry no labels, each spending at most b = PeriodSize/2 annotations per
// period. FT labels b of a period's arrivals drawn uniformly at random;
// Warper spends its b (AnnotateBudget) on what its picker chooses. γ is the
// period size, so a period's arrivals are adequate in number and short only
// of labels: a workload drift is c3, never c2.
//
// An unchanged workload is the c1 construction of §4.1.2: the table is
// sorted by one column and truncated in half, every stored label goes stale,
// and the test set and the δ_m oracle are relabelled after the drift.
func runStarved(ds, trainSpec, newSpec string, sc Scale, seed int64) *Comparison {
	b := sc.PeriodSize / 2
	sc.Warper.AnnotateBudget = b
	return compare(sc, seed, 104729, ftWarper, func(runSeed int64) (t trial) {
		env := NewEnv(ds, trainSpec, newSpec, "lm-mlp", sc, runSeed)
		test := env.Test
		t.deltaM, t.deltaJS = env.DeltaM, env.DeltaJS
		if trainSpec == newSpec {
			dataset.SortTruncateHalf(env.Tbl, 0)
			test = must(env.Ann.AnnotateAll(context.Background(), predsOf(env.Test)))
			oracle := NewModel("lm-mlp", env.Sch, runSeed+3)
			check(oracle.Train(must(env.Ann.AnnotateAll(context.Background(), predsOf(env.Stream)))))
			// δ_js is 0 by construction: the workload did not change.
			t.deltaM, t.deltaJS = metrics.DeltaM(ce.EvalGMQ(env.Model, test), ce.EvalGMQ(oracle, test)), 0
		}
		methods := env.Methods(ftWarper, sc, sc.PeriodSize, runSeed+17)
		methods[0] = &starvedFT{Method: methods[0], ann: env.Ann, b: b, rng: rand.New(rand.NewSource(runSeed + 17))}
		t.run(methods, adapt.SplitPeriods(adapt.ArrivalsOf(env.Stream, false), sc.PeriodSize), test)
		return t
	})
}

// starvedFT wraps FT for arrivals that carry no labels: each period it
// annotates b of them, drawn uniformly at random, and steps FT on those.
type starvedFT struct {
	adapt.Method
	ann   *annotator.Annotator
	b     int
	rng   *rand.Rand
	spent int
}

// Step implements adapt.Method.
func (f *starvedFT) Step(arrivals []warper.Arrival) error {
	var preds []query.Predicate
	for _, i := range f.rng.Perm(len(arrivals))[:min(f.b, len(arrivals))] {
		preds = append(preds, arrivals[i].Pred)
	}
	labeled, err := f.ann.AnnotateAll(context.Background(), preds)
	if err != nil {
		return err
	}
	f.spent += len(labeled)
	return f.Method.Step(adapt.ArrivalsOf(labeled, true))
}

// AnnotationsSpent implements adapt.Method.
func (f *starvedFT) AnnotationsSpent() int { return f.spent }
