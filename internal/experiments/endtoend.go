package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"warper/internal/adapt"
	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/engine"
	"warper/internal/query"
	"warper/internal/tpch"
	"warper/internal/warper"
	"warper/internal/workload"
)

// e2eEnv is the §4.2 environment: the TPC-H-shaped tables, the mini engine,
// and per-table CE machinery for the Figure 1 L⋈O query template.
type e2eEnv struct {
	db         *tpch.DB
	eng        *engine.Engine
	schL, schO *query.Schema
	annL, annO *annotator.Annotator
	rng        *rand.Rand
}

func newE2E(seed int64) *e2eEnv {
	rng := rand.New(rand.NewSource(seed))
	db := tpch.Generate(tpch.Config{Orders: 3000}, rng)
	return &e2eEnv{
		db:   db,
		eng:  engine.New(db),
		schL: query.SchemaOf(db.Lineitem),
		schO: query.SchemaOf(db.Orders),
		annL: annotator.New(db.Lineitem),
		annO: annotator.New(db.Orders),
		rng:  rng,
	}
}

// e2eOpts constrains predicates to the non-key value columns so they behave
// like the paper's template predicates.
var e2eOpts = workload.Options{MinConstrained: 1, MaxConstrained: 2}

func (e *e2eEnv) gen(spec string, tbl *dataset.Table, sch *query.Schema) workload.Generator {
	return workload.Parse(spec, tbl, sch, e2eOpts)
}

// labeledPairs draws n (predL, predO) pairs from the given per-table specs
// with fresh ground truth.
func (e *e2eEnv) labeledPairs(specL, specO string, n int) (ls, os []query.Labeled) {
	gl := e.gen(specL, e.db.Lineitem, e.schL)
	gob := e.gen(specO, e.db.Orders, e.schO)
	for i := 0; i < n; i++ {
		pl := gl.Gen(e.rng)
		po := gob.Gen(e.rng)
		ls = append(ls, query.Labeled{Pred: pl, Card: must(e.annL.Count(context.Background(), pl))})
		os = append(os, query.Labeled{Pred: po, Card: must(e.annO.Count(context.Background(), po))})
	}
	return ls, os
}

// Table9 regenerates Table 9: the maximum latency gap between plans chosen
// with accurate vs inaccurate cardinality estimates, per scenario S1–S3.
func Table9(sc Scale, seed int64) []*Table {
	e := newE2E(seed)
	t := &Table{
		ID:     "Table 9",
		Title:  "Max latency gap between accurate-CE and inaccurate-CE plans (100 queries each)",
		Header: []string{"Scenario", "Executed as", "Predicate on", "Latency gap"},
	}
	const nQueries = 100
	ls, osQ := e.labeledPairs("w1", "w1", nQueries)
	scen := []struct {
		s       engine.Scenario
		execAs  string
		predOn  string
		mangle  func(trueL, trueO float64) (float64, float64)
		fullOnO bool
	}{
		// S1: under-estimate the build side (the predicated L input) so the
		// spill goes unplanned.
		{engine.S1BufferSpill, "single thread", "L", func(l, o float64) (float64, float64) { return l / 100, o }, true},
		// S2: under-estimate both sides so the planner picks a nested loop.
		{engine.S2JoinType, "single thread", "L, O", func(l, o float64) (float64, float64) { return l / 1000, o / 1000 }, false},
		// S3: invert the relative sizes so the bitmap lands on the wrong side.
		{engine.S3BitmapSide, "multi thread", "L, O", func(l, o float64) (float64, float64) { return o, l }, false},
	}
	for _, s := range scen {
		worst := 1.0
		for i := 0; i < nQueries; i++ {
			predL := ls[i].Pred
			predO := osQ[i].Pred
			if s.fullOnO {
				predO = query.NewFullRange(e.schO)
			}
			trueL, trueO := ls[i].Card, osQ[i].Card
			if s.fullOnO {
				trueO = float64(e.db.Orders.NumRows())
			}
			estL, estO := s.mangle(trueL, trueO)
			good, bad := e.eng.LatencyGap(s.s, predL, predO, estL, estO, trueL, trueO)
			if good > 0 {
				if r := float64(bad) / float64(good); r > worst {
					worst = r
				}
			}
		}
		t.Rows = append(t.Rows, []string{s.s.String(), s.execAs, s.predOn, fmt.Sprintf("%.1fx", worst)})
	}
	return []*Table{t}
}

// trainedPair trains one LM-mlp per table. Methods built over two pairs
// trained from one seed start from identical weights.
func (e *e2eEnv) trainedPair(trainL, trainO []query.Labeled, seed int64) (ce.Estimator, ce.Estimator) {
	mL := ce.NewLM(ce.LMMLP, e.schL, seed)
	check(mL.Train(trainL))
	mO := ce.NewLM(ce.LMMLP, e.schO, seed+1)
	check(mO.Train(trainO))
	return mL, mO
}

// run drives Figures 1 and 9. A method is a pair of adapt.Methods, one per
// table. Each period every method steps through the same perPeriod labeled
// (L, O) arrivals of spec(t), then is scored on testN fresh pairs; every
// scenario's table gets the row: period, each method's GMQ (the mean of its
// two tables'), then each method's latency over the test pairs, normalized
// to the true-cardinality plans'.
func (e *e2eEnv) run(methods [][2]adapt.Method, scens []engine.Scenario, tables []*Table,
	periods, perPeriod, testN int, spec func(t int) string) {
	for _, tbl := range tables {
		tbl.Header = []string{"Period"}
		for _, kind := range []string{"GMQ ", "Lat "} {
			for _, m := range methods {
				tbl.Header = append(tbl.Header, kind+m[0].Name())
			}
		}
	}
	for t := 0; t < periods; t++ {
		ls, os := e.labeledPairs(spec(t), spec(t), perPeriod)
		testL, testO := e.labeledPairs(spec(t), spec(t), testN)
		gmqs := make([]string, len(methods))
		for i, m := range methods {
			check(m[0].Step(adapt.ArrivalsOf(ls, true)))
			check(m[1].Step(adapt.ArrivalsOf(os, true)))
			gmqs[i] = f2((ce.EvalGMQ(m[0].Model(), testL) + ce.EvalGMQ(m[1].Model(), testO)) / 2)
		}
		for si, s := range scens {
			row := append([]string{fmt.Sprint(t + 1)}, gmqs...)
			for _, m := range methods {
				mL, mO := m[0].Model(), m[1].Model()
				var actual, ideal float64
				for i := range testL {
					good, bad := e.eng.LatencyGap(s, testL[i].Pred, testO[i].Pred,
						mL.Estimate(testL[i].Pred), mO.Estimate(testO[i].Pred),
						testL[i].Card, testO[i].Card)
					actual += float64(bad)
					ideal += float64(good)
				}
				row = append(row, f2(actual/ideal))
			}
			tables[si].Rows = append(tables[si].Rows, row)
		}
	}
}

// e2eDrift names one continuous-drift schedule of Figure 9.
type e2eDrift struct {
	name string
	// specAt returns the workload spec for period t of total P.
	specAt func(t, p int) string
	// dataDrift, if set, fires once at period 0.
	dataDrift func(e *e2eEnv)
}

func fig9Drifts() []e2eDrift {
	return []e2eDrift{
		{
			name:   "A (w1→w2 persistent)",
			specAt: func(t, p int) string { return "w2" },
		},
		{
			name: "B (w4 first half, back to w1)",
			specAt: func(t, p int) string {
				if t < p/2 {
					return "w4"
				}
				return "w1"
			},
		},
		{
			name:   "C (w1 + data drift)",
			specAt: func(t, p int) string { return "w1" },
			dataDrift: func(e *e2eEnv) {
				dataset.SortTruncateHalf(e.db.Lineitem, tpch.LColQuantity)
			},
		},
	}
}

// Fig9 regenerates Figure 9: under three continuous drifts, per-period CE
// accuracy and S1–S3 query latency for Warper vs FT (latency normalized to
// the true-cardinality plan).
func Fig9(sc Scale, seed int64) []*Table {
	const (
		periods    = 8
		perPeriod  = 30
		latQueries = 15
	)
	scens := []engine.Scenario{engine.S1BufferSpill, engine.S2JoinType, engine.S3BitmapSide}
	var out []*Table
	for _, d := range fig9Drifts() {
		e := newE2E(seed)
		// Seed models trained on w1 over both tables.
		trainL, trainO := e.labeledPairs("w1", "w1", sc.TrainSize)
		wcfg := sc.Warper
		wcfg.Gamma = periods * perPeriod
		wcfg.Seed = seed + 5
		mLW, mOW := e.trainedPair(trainL, trainO, seed+100)
		mLF, mOF := e.trainedPair(trainL, trainO, seed+100) // same seed: identical start
		methods := [][2]adapt.Method{
			{adapt.NewFT(mLF, trainL), adapt.NewFT(mOF, trainO)},
			{adapt.NewWarper(must(warper.New(wcfg, mLW, e.schL, e.annL, trainL))),
				adapt.NewWarper(must(warper.New(wcfg, mOW, e.schO, e.annO, trainO)))},
		}
		if d.dataDrift != nil {
			d.dataDrift(e)
		}
		tables := make([]*Table, len(scens))
		for i, s := range scens {
			tables[i] = &Table{
				ID: fmt.Sprintf("Figure 9 (%s, Drift %s)", s, d.name),
				Title: "Per-period GMQ and latency (normalized to the true-cardinality plan), " +
					"Warper vs FT under a continuous drift",
			}
		}
		e.run(methods, scens, tables, periods, perPeriod, latQueries,
			func(t int) string { return d.specAt(t, periods) })
		out = append(out, tables...)
	}
	return out
}

// Fig1 regenerates the Figure 1 motivation: a workload drift on the L
// predicate of the L⋈O template; adapting with Warper recovers both CE
// accuracy and query latency, while no adaptation stays degraded.
func Fig1(sc Scale, seed int64) []*Table {
	e := newE2E(seed)
	// Train on w2 (low-cardinality, log-concentrated predicates) and drift
	// to w1 (wider uniform ranges): the stale model under-estimates the
	// drifted queries, which is the error direction that skips spill
	// planning and regresses latency (§4.2).
	trainL, trainO := e.labeledPairs("w2", "w1", sc.TrainSize)
	const (
		periods   = 6
		perPeriod = 30
	)
	wcfg := sc.Warper
	wcfg.Gamma = periods * perPeriod
	wcfg.Seed = seed + 3
	mLW, mOW := e.trainedPair(trainL, trainO, seed+200)
	mLN, mON := e.trainedPair(trainL, trainO, seed+200)
	methods := [][2]adapt.Method{
		{adapt.NoAdapt{M: mLN}, adapt.NoAdapt{M: mON}},
		{adapt.NewWarper(must(warper.New(wcfg, mLW, e.schL, e.annL, trainL))),
			adapt.NewWarper(must(warper.New(wcfg, mOW, e.schO, e.annO, trainO)))},
	}
	t := &Table{
		ID: "Figure 1",
		Title: "Motivation: drift w2→w1 on the L predicate of L⋈O; GMQ and S1 latency " +
			"(normalized to true-card plans), no adaptation vs Warper",
	}
	e.run(methods, []engine.Scenario{engine.S1BufferSpill}, []*Table{t}, periods, perPeriod, 25,
		func(int) string { return "w1" })
	return []*Table{t}
}
