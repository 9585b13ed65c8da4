package experiments

import (
	"context"
	"math/rand"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/imdb"
	"warper/internal/metrics"
	"warper/internal/query"
)

// Table7d regenerates Table 7d: adapting the MSCN join estimator on the
// IMDB-like star schema under workload drift c2 (the paper drifts the
// predicate style w4 → w1 while keeping the join templates).
//
// Warper's single-table GAN does not directly synthesize join queries;
// following the paper's design (Warper "applies directly to the predicates
// that the model can support"), the generator here synthesizes per-table
// predicates from the new workload's predicate distribution and grafts them
// onto observed join templates. Fine-tuning (FT) is the baseline.
func Table7d(sc Scale, seed int64) []*Table {
	row := deltaRow(runJoin(sc, seed), "imdb", "c2", "w4/w1", "MSCN")
	row[5] = "-" // δ_js is defined over single-table predicates
	return []*Table{{
		ID:     "Table 7d",
		Title:  "Join CE: MSCN on IMDB-like star schema, drift c2 (w4 → w1 predicates)",
		Header: deltaHeader,
		Rows:   [][]string{row},
	}}
}

// runJoin is Table 7d's comparison: FT against Warper-for-joins on MSCN.
func runJoin(sc Scale, seed int64) *Comparison {
	return compare(sc, seed, 15485863, ftWarper, func(runSeed int64) (t trial) {
		rng := rand.New(rand.NewSource(runSeed))
		db := imdb.Generate(imdb.Config{Titles: 2000}, rng)
		ja := annotator.NewJoin(db.Tables()...)

		trainW := &imdb.JoinWorkload{DB: db, PredStyle: "sample"} // w4-like
		newW := &imdb.JoinWorkload{DB: db, PredStyle: "uniform"}  // w1-like
		train := must(ja.AnnotateAll(context.Background(), trainW.Generate(sc.TrainSize, rng)))
		stream := must(ja.AnnotateAll(context.Background(), newW.Generate(sc.StreamSize, rng)))
		test := must(ja.AnnotateAll(context.Background(), newW.Generate(sc.TestSize, rng)))

		m := ce.NewMSCN(db.Catalog, runSeed+1)
		check(m.TrainJoin(train))

		oracle := ce.NewMSCN(db.Catalog, runSeed+2)
		check(oracle.TrainJoin(stream))
		t.deltaM = metrics.DeltaM(must(ce.EvalJoinGMQ(m, test)), must(ce.EvalJoinGMQ(oracle, test)))

		// FT: fine-tune with each period's labeled arrivals.
		ft := m.Clone().(*ce.MSCN)
		ftCurve := &metrics.Curve{}
		ftCurve.Append(0, must(ce.EvalJoinGMQ(ft, test)))
		for start := 0; start < len(stream); start += sc.PeriodSize {
			end := min(start+sc.PeriodSize, len(stream))
			check(ft.UpdateJoin(stream[:end])) // all labeled arrivals so far
			ftCurve.Append(float64(end), must(ce.EvalJoinGMQ(ft, test)))
		}

		// Warper-for-joins: synthesize additional join queries by pairing
		// observed join templates with per-table predicates resampled (with
		// noise) from the new arrivals, annotate them, fine-tune on
		// arrivals + synthetic.
		wm := m.Clone().(*ce.MSCN)
		wCurve := &metrics.Curve{}
		wCurve.Append(0, must(ce.EvalJoinGMQ(wm, test)))
		var synthPool []query.LabeledJoin
		for start := 0; start < len(stream); start += sc.PeriodSize {
			end := min(start+sc.PeriodSize, len(stream))
			arrivals := stream[start:end]
			nGen := len(arrivals) // generate 1× to amplify the sparse join stream
			var synth []*query.JoinQuery
			for i := 0; i < nGen; i++ {
				tmpl := arrivals[rng.Intn(len(arrivals))].Query.Clone()
				// Resample each table's predicate from another arrival with
				// the same table, mimicking the generator's role.
				for _, name := range tmpl.Tables {
					donor := arrivals[rng.Intn(len(arrivals))]
					if p, ok := donor.Query.Preds[name]; ok {
						tmpl.SetPred(name, jitterPred(p, db.Catalog.Schemas[name], rng))
					}
				}
				synth = append(synth, tmpl)
			}
			synthPool = append(synthPool, must(ja.AnnotateAll(context.Background(), synth))...)
			update := append(append([]query.LabeledJoin(nil), stream[:end]...), synthPool...)
			check(wm.UpdateJoin(update))
			wCurve.Append(float64(end), must(ce.EvalJoinGMQ(wm, test)))
		}
		t.curves = []*metrics.Curve{ftCurve, wCurve}
		return t
	})
}

// jitterPred adds small Gaussian noise to a predicate's constrained bounds.
func jitterPred(p query.Predicate, sch *query.Schema, rng *rand.Rand) query.Predicate {
	out := p.Clone()
	for i := range out.Lows {
		span := sch.Maxs[i] - sch.Mins[i]
		if out.Lows[i] > sch.Mins[i] || out.Highs[i] < sch.Maxs[i] {
			out.Lows[i] += rng.NormFloat64() * 0.05 * span
			out.Highs[i] += rng.NormFloat64() * 0.05 * span
		}
	}
	return out.Normalize(sch)
}
